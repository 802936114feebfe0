//! Topology-aware hierarchical collectives.
//!
//! The flat algorithms treat all P ranks as wire peers, so with ppn
//! co-located ranks per node every inter-node exchange crosses the HCA
//! ppn² times (alltoall) or funnels ppn uncoordinated streams into one
//! port (reduce fan-in). The hierarchical family splits every collective
//! into the natural two levels the fabric actually has:
//!
//! * **intra-node** — co-located ranks fan in/out through their node
//!   leader. The engine routes these transfers over the shared-memory
//!   channel automatically, so they cost shm bandwidth, not HCA bandwidth.
//! * **inter-node** — only node leaders talk across the wire, carrying
//!   each node's *aggregate* (concatenated blocks, or the node-combined
//!   partial reduction), so the HCA sees one stream per node pair.
//!
//! Reductions additionally **pipeline**: the payload is cut into
//! [`PIPELINE_CHUNK`] segments, and while segment `s` crosses the wire
//! among the leaders, segment `s+1` is still fanning in over shm — pack,
//! combine and wire time overlap instead of adding up.
//!
//! All intra-node aggregation happens in packed-byte form (the wire
//! representation), so member buffers may be host or device, contiguous
//! or a derived GPU datatype: the pack/unpack cost is paid once at the
//! edges by the normal staging machinery. A member's device buffer on the
//! leader's GPU reaches the leader's packed bytes without the shm channel:
//! the engine's device rendezvous serves a contiguous host receive too, by
//! one D2H the leader issues from the member's buffer. The one exception
//! to packed form is a result every member of a node holds identically —
//! the allreduce's: the leader lands it once in its own `recvbuf` and fans
//! it out from there, so members on the leader's GPU copy it device to
//! device.
//!
//! In the reductions and the alltoallv, the leader's own contribution is a
//! member's that never travels: it is staged in place ([`Coll::stage`],
//! [`Coll::stage_blocks`]) where a member's would be sent, and its share
//! of the result delivered in place where a member's would be received.

use gpu_sim::Loc;
use hostmem::HostBuf;

use super::{Blocks, Coll, Fold, ReqWindow, Tree, PIPELINE_CHUNK};
use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::engine::Engine;
use crate::proto::ReqId;

/// Upper bound on participating nodes: phase tags are node-indexed with a
/// stride of 4096 inside the per-collective tag window.
pub(crate) const MAX_NODES: usize = 2048;

/// A communicator's members grouped by physical node.
///
/// Node order is first-seen by ascending group rank (so every member
/// derives the identical structure without communication — it depends
/// only on the shared topology and group). `groups[x]` lists node `x`'s
/// members in ascending group-rank order; `groups[x][0]` is the leader.
pub(crate) struct Hierarchy {
    groups: Vec<Vec<usize>>,
    my_node: usize,
}

impl Hierarchy {
    pub(crate) fn build(c: &Comm, eng: &Engine) -> Hierarchy {
        // Node ids are dense, so the group of node `n` is found at
        // `idx_of_node[n]`, grown as higher ids are seen.
        let mut idx_of_node: Vec<Option<usize>> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut my_node = 0;
        for g in 0..c.size() {
            let node = eng.node_of(c.world_rank_of(g));
            if node >= idx_of_node.len() {
                idx_of_node.resize(node + 1, None);
            }
            let idx = *idx_of_node[node].get_or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[idx].push(g);
            if g == c.rank() {
                my_node = idx;
            }
        }
        Hierarchy { groups, my_node }
    }

    /// Whether the two-level shape buys anything: at least two nodes (else
    /// there is no wire to economize) and at least one node hosting two or
    /// more members (else leaders-only == flat). Past [`MAX_NODES`] the
    /// node-indexed phase tags would leave the collective's tag window, so
    /// such a communicator is served flat: the flat algorithms index their
    /// tags by round, modulo the window.
    pub(crate) fn beneficial(&self) -> bool {
        let nodes = self.groups.len();
        (2..=MAX_NODES).contains(&nodes) && self.groups.iter().any(|g| g.len() >= 2)
    }

    fn leaders(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g[0]).collect()
    }

    /// The calling rank's node, leader first.
    fn my_group(&self) -> &[usize] {
        &self.groups[self.my_node]
    }

    /// One representative per node for a collective rooted at `root`: the
    /// root itself on its own node (so the payload never takes an extra
    /// hop there), the leader everywhere else.
    fn reps(&self, root: usize) -> Vec<usize> {
        self.groups
            .iter()
            .map(|g| match g.binary_search(&root) {
                Ok(_) => root,
                Err(_) => g[0],
            })
            .collect()
    }
}

/// Hierarchical bcast: root → one representative per node over the wire
/// (binomial over representatives), then representative → co-located
/// members over shm (binomial inside the node).
pub(super) fn bcast(
    cx: &mut Coll,
    h: &Hierarchy,
    buf: &Loc,
    count: usize,
    dtype: &Datatype,
    root: usize,
) {
    let reps = h.reps(root);
    let wire = Tree::binomial(&reps, root, cx.rank());
    cx.bcast_over(&wire, buf, count, dtype, 1);
    let shm = Tree::binomial(h.my_group(), reps[h.my_node], cx.rank());
    cx.bcast_over(&shm, buf, count, dtype, 2);
}

/// Hierarchical gather: members ship their block to their node's
/// representative over shm; each remote representative forwards one
/// concatenated aggregate to the root, which receives it with an hindexed
/// datatype placing every block straight at its `recvbuf` offset — one
/// wire message per remote node, no intermediate copy at the root.
pub(super) fn gather(cx: &mut Coll, h: &Hierarchy, sendbuf: &Loc, recv: &Blocks, root: usize) {
    let me = cx.rank();
    let reps = h.reps(root);
    let my_rep = reps[h.my_node];
    const T_BLOCK: u32 = 1;
    const T_AGG: u32 = 2;

    // Every rank ships its block to its node's representative (a
    // self-message for the representative itself).
    let mut ids = vec![cx.send(
        sendbuf.clone(),
        recv.counts[me],
        recv.dtype,
        my_rep,
        T_BLOCK,
    )];

    if me == root {
        for (grp, &rep) in h.groups.iter().zip(&reps) {
            if rep == root {
                // Blocks from my own node arrive individually, typed.
                for &g in grp {
                    ids.push(cx.recv(recv.block(g), recv.counts[g], recv.dtype, g, T_BLOCK));
                }
            } else {
                // A remote node's aggregate lands via one hindexed view
                // scattering each member's block to its offset.
                let (loc, n, dt) = recv.view(grp.iter().copied());
                ids.push(cx.recv(loc, n, &dt, rep, T_AGG));
            }
        }
    } else if me == my_rep {
        // Aggregate local blocks (packed, member order) and forward once.
        let (grp, bytes) = (h.my_group(), recv.bytes(me));
        let scratch = HostBuf::alloc(grp.len() * bytes);
        for (i, &g) in grp.iter().enumerate() {
            ids.push(cx.recv_bytes(&scratch, i * bytes, bytes, g, T_BLOCK));
        }
        cx.wait(std::mem::take(&mut ids));
        ids.push(cx.send_bytes(&scratch, 0, grp.len() * bytes, root, T_AGG));
    }
    cx.wait(ids);
}

/// Hierarchical scatter — the mirror of [`gather`]: the root sends each
/// remote node one hindexed aggregate (gathered straight out of
/// `sendbuf`), whose representative splits it over shm.
pub(super) fn scatter(cx: &mut Coll, h: &Hierarchy, send: &Blocks, recvbuf: &Loc, root: usize) {
    let me = cx.rank();
    let reps = h.reps(root);
    let my_rep = reps[h.my_node];
    const T_BLOCK: u32 = 1;
    const T_AGG: u32 = 2;

    // My block arrives typed from whoever distributes it to me: the root
    // itself on the root's node, my representative elsewhere.
    let my_recv = cx.recv(
        recvbuf.clone(),
        send.counts[me],
        send.dtype,
        my_rep,
        T_BLOCK,
    );

    let mut win = ReqWindow::default();
    if me == root {
        for (grp, &rep) in h.groups.iter().zip(&reps) {
            if rep == root {
                for &g in grp {
                    let id = cx.send(send.block(g), send.counts[g], send.dtype, g, T_BLOCK);
                    win.push(cx, vec![id]);
                }
            } else {
                let (loc, n, dt) = send.view(grp.iter().copied());
                let id = cx.send(loc, n, &dt, rep, T_AGG);
                win.push(cx, vec![id]);
            }
        }
    } else if me == my_rep {
        let (grp, bytes) = (h.my_group(), send.bytes(me));
        let scratch = HostBuf::alloc(grp.len() * bytes);
        let agg = cx.recv_bytes(&scratch, 0, grp.len() * bytes, root, T_AGG);
        cx.wait(vec![agg]);
        for (i, &g) in grp.iter().enumerate() {
            let id = cx.send_bytes(&scratch, i * bytes, bytes, g, T_BLOCK);
            win.push(cx, vec![id]);
        }
    }
    win.drain(cx);
    cx.wait(vec![my_recv]);
}

/// Hierarchical allgatherv: members ship their block to the node leader
/// over shm; leaders run a ring over *node aggregates* (each wire step
/// carries one node's concatenated blocks); the leader then fans every
/// node's aggregate out to each co-located member, which receives it with
/// an hindexed view placing the blocks at their displacements.
pub(super) fn allgatherv(
    cx: &mut Coll,
    h: &Hierarchy,
    sendbuf: &Loc,
    scount: usize,
    sdtype: &Datatype,
    recv: &Blocks,
) {
    let me = cx.rank();
    let nn = h.groups.len();
    let my_group = h.my_group();
    let leader = my_group[0];
    const T_IN: u32 = 1;
    const T_RING: u32 = 4096; // + ring step
    const T_OUT: u32 = 8192; // + source node index

    // Phase 1: ship my block to my node leader (self-message if I am it).
    let mut final_ids = vec![cx.send(sendbuf.clone(), scount, sdtype, leader, T_IN)];

    // Post the fan-out receives up front: one hindexed message per node,
    // scattering that node's blocks to their displacements.
    for (x, grp) in h.groups.iter().enumerate() {
        let (loc, n, dt) = recv.view(grp.iter().copied());
        final_ids.push(cx.recv(loc, n, &dt, leader, T_OUT + x as u32));
    }

    if me == leader {
        // Every node's aggregate (its members' blocks in group order); my
        // node's fills from the fan-in, the others from the ring.
        let aggs: Vec<HostBuf> = h
            .groups
            .iter()
            .map(|grp| HostBuf::alloc(grp.iter().map(|&g| recv.bytes(g)).sum()))
            .collect();
        let mut off = 0;
        let mut gids = Vec::new();
        for &g in my_group {
            gids.push(cx.recv_bytes(&aggs[h.my_node], off, recv.bytes(g), g, T_IN));
            off += recv.bytes(g);
        }
        cx.wait(gids);

        // Ring over node aggregates among the leaders.
        let li = h.my_node;
        let right = h.groups[(li + 1) % nn][0];
        let left = h.groups[(li + nn - 1) % nn][0];
        for step in 0..nn - 1 {
            let sx = (li + nn - step) % nn;
            let rx = (li + nn - step - 1) % nn;
            let t = T_RING + step as u32;
            let rid = cx.recv_bytes(&aggs[rx], 0, aggs[rx].len(), left, t);
            let sid = cx.send_bytes(&aggs[sx], 0, aggs[sx].len(), right, t);
            cx.wait(vec![rid, sid]);
        }

        // Fan every node's aggregate out to each co-located member (self
        // included), bounded in flight.
        let mut win = ReqWindow::default();
        for &d in my_group {
            for (x, agg) in aggs.iter().enumerate() {
                let id = cx.send_bytes(agg, 0, agg.len(), d, T_OUT + x as u32);
                win.push(cx, vec![id]);
            }
        }
        win.drain(cx);
    }
    cx.wait(final_ids);
}

/// Hierarchical reduce: members send their typed contribution to their
/// node's representative, which folds them (double-buffered, packed) into
/// its own staged bytes; representatives then run the binomial byte tree,
/// and the root unpacks into `recvbuf`.
pub(super) fn reduce(
    cx: &mut Coll,
    h: &Hierarchy,
    sendbuf: &Loc,
    recvbuf: &Loc,
    count: usize,
    fold: Fold,
    root: usize,
) {
    let me = cx.rank();
    const T_FANIN: u32 = 1;
    const T_TREE: u32 = 2;
    let reps = h.reps(root);
    let my_rep = reps[h.my_node];

    if me != my_rep {
        let id = cx.send(sendbuf.clone(), count, fold.dtype, my_rep, T_FANIN);
        cx.wait(vec![id]);
        return;
    }

    let mut acc = cx.stage(sendbuf, count, fold.dtype);
    let members = h.my_group().iter().copied().filter(|&g| g != me);
    cx.fold_from(members, &mut acc, fold, T_FANIN);
    let tree = Tree::binomial(&reps, root, me);
    cx.reduce_over(&tree, &mut acc, fold, T_TREE);
    if me == root {
        cx.deliver(&acc, recvbuf, count, fold.dtype);
    }
}

/// Hierarchical pipelined allreduce. The payload is cut into
/// [`PIPELINE_CHUNK`] segments; per segment: members send their slice to
/// the node leader (typed, straight out of the user buffer), the leader
/// folds all local slices, the leaders allreduce the segment over the wire
/// by reduce-scatter + allgather ([`Coll::allreduce_over`]), and the leader
/// delivers the reduced segment into its own `recvbuf` slice and sends it
/// from there, typed, into each member's. On a shared GPU both directions
/// are the engine's device rendezvous: a member's slice lands in the
/// leader's fan-in bank by one D2H the leader issues, and the result
/// reaches each member by one D2D — no H2D and no shm payload either way.
/// A segment within the eager limit crosses shm as packed host bytes
/// instead. Segment `s+1`'s fan-in receives are posted before segment `s`
/// is combined, and fan-in/fan-out traffic is windowed by `MAX_INFLIGHT`
/// segments, so fan-in, combine and wire time overlap across segments.
pub(super) fn allreduce(
    cx: &mut Coll,
    h: &Hierarchy,
    sendbuf: &Loc,
    recvbuf: &Loc,
    count: usize,
    fold: Fold,
) {
    let me = cx.rank();
    let dtype = fold.dtype;
    let psz = dtype.size();
    let bytes = count * psz;
    if bytes == 0 {
        return;
    }
    let leader = h.my_group()[0];
    let members = &h.my_group()[1..];
    let nseg = bytes.div_ceil(PIPELINE_CHUNK);
    let seg_of = |s: usize| {
        let off = s * PIPELINE_CHUNK;
        (off, PIPELINE_CHUNK.min(bytes - off))
    };
    let t_fanin = |s: usize| 1024 + (s % 1024) as u32;
    let t_fanout = |s: usize| 2048 + (s % 1024) as u32;
    let t_rs = |s: usize| 4096 + (s % 1024) as u32;
    let t_ag = |s: usize| 8192 + (s % 1024) as u32;

    if me != leader {
        // Members stream slices to the leader and receive reduced slices
        // back, both bounded in flight. PIPELINE_CHUNK is a multiple of
        // every primitive size, so slice boundaries always fall on element
        // boundaries.
        let mut sends = ReqWindow::default();
        let mut recvs = ReqWindow::default();
        for s in 0..nseg {
            let (off, sb) = seg_of(s);
            let sid = cx.send(sendbuf.add(off), sb / psz, dtype, leader, t_fanin(s));
            sends.push(cx, vec![sid]);
            let rid = cx.recv(recvbuf.add(off), sb / psz, dtype, leader, t_fanout(s));
            recvs.push(cx, vec![rid]);
        }
        sends.drain(cx);
        recvs.drain(cx);
        return;
    }

    // Leader. Stage my whole contribution once; the pipeline then works
    // in packed bytes.
    let mut acc = cx.stage(sendbuf, count, dtype);
    let leaders = h.leaders();

    // Two banks of per-member segment scratch: bank s%2 holds segment s's
    // fan-in, and segment s+1's receives are posted before segment s is
    // combined, so members' shm transfers overlap the leader's work.
    let bank = || -> Vec<HostBuf> {
        members
            .iter()
            .map(|_| HostBuf::alloc(PIPELINE_CHUNK))
            .collect()
    };
    let banks = [bank(), bank()];
    let post_bank = |cx: &mut Coll, s: usize| -> Vec<ReqId> {
        let (sb, t) = (seg_of(s).1, t_fanin(s));
        let fanin = members.iter().zip(&banks[s % 2]);
        fanin
            .map(|(&m, buf)| cx.recv_bytes(buf, 0, sb, m, t))
            .collect()
    };
    let mut posted = post_bank(cx, 0);

    let mut fanout = ReqWindow::default();
    for s in 0..nseg {
        let (off, sb) = seg_of(s);
        let next = if s + 1 < nseg {
            post_bank(cx, s + 1)
        } else {
            Vec::new()
        };
        cx.wait(std::mem::replace(&mut posted, next));
        let seg = &mut acc[off..off + sb];
        for buf in &banks[s % 2] {
            fold.combine(seg, &buf.read(0, sb));
        }

        // Allreduce this segment among the leaders while later segments
        // are still fanning in.
        cx.allreduce_over(&leaders, seg, fold, t_rs(s), t_ag(s));

        // Land the reduced segment once, in my own recvbuf, and fan it out
        // from there: typed, so a member on my GPU copies it device to
        // device. A segment the engine would send eagerly goes as the host
        // bytes I hold — the eager path copies through host memory anyway.
        let (eager, typed): (Vec<usize>, Vec<usize>) =
            members.iter().partition(|&&m| sb <= cx.eager_limit(m));
        let mut ids = Vec::new();
        if !eager.is_empty() {
            let out = HostBuf::from_vec(seg.to_vec());
            for &m in &eager {
                ids.push(cx.send_bytes(&out, 0, sb, m, t_fanout(s)));
            }
        }
        let (dst, n) = (recvbuf.add(off), sb / psz);
        cx.deliver(seg, &dst, n, dtype);
        for &m in &typed {
            ids.push(cx.send(dst.clone(), n, dtype, m, t_fanout(s)));
        }
        if !ids.is_empty() {
            fanout.push(cx, ids);
        }
    }
    fanout.drain(cx);
}

/// Hierarchical alltoallv. Four phases, all windowed:
///
/// * **metadata** — members ship their per-peer byte counts to the node
///   leader (16·P bytes), which keeps one send-bytes and one receive-bytes
///   row per local member: the one place the aggregates' layout is decided;
/// * **A (fan-in)** — every member sends its leader one hindexed message
///   gathering all its blocks straight out of `sendbuf`, for every rank in
///   node order (its own node and itself included);
/// * **B/C (wire)** — the leader cuts the fan-in streams into per-node
///   aggregates in one pass, and leaders exchange them pairwise: one wire
///   message per node pair instead of ppn² rank pairs. The leader keeps its
///   own node's aggregate;
/// * **D (fan-out)** — the leader deals every node's aggregate into
///   per-member payloads in one pass and ships each member its payload,
///   which lands at its displacements via one hindexed receive.
///
/// The leader's own stream and payload are a member's that never travel:
/// [`Coll::stage_blocks`] and [`Coll::deliver_blocks`]. A member thus posts
/// two data messages whatever the ppn: a device buffer pays one pack and one
/// unpack, not one per co-located peer.
pub(super) fn alltoallv(cx: &mut Coll, h: &Hierarchy, send: &Blocks, recv: &Blocks) {
    let size = cx.size();
    let (nn, my_group) = (h.groups.len(), h.my_group());
    let leader = my_group[0];
    const T_META: u32 = 1;
    const T_WIRE: u32 = 2;
    const T_FANIN: u32 = 4096;
    const T_FANOUT: u32 = 8192;
    // A fan-in stream holds blocks for, and a payload blocks from, every
    // rank in node order, then group order.
    let ranks = || h.groups.iter().flatten().copied();
    let sb: Vec<usize> = (0..size).map(|j| send.bytes(j)).collect();
    let rb: Vec<usize> = (0..size).map(|j| recv.bytes(j)).collect();

    if cx.rank() != leader {
        // Send and receive byte counts as u64 LE, then one stream out and
        // one payload in. Each view's datatype is dropped once posted: held
        // across the waits, every member's cached layout plans would be
        // resident at once.
        let ser = sb.iter().chain(&rb).flat_map(|&v| (v as u64).to_le_bytes());
        let meta = HostBuf::from_vec(ser.collect());
        let id = cx.send_bytes(&meta, 0, 16 * size, leader, T_META);
        cx.wait(vec![id]);
        let a = {
            let (loc, n, dt) = send.view(ranks());
            cx.send(loc, n, &dt, leader, T_FANIN)
        };
        let d = {
            let (loc, n, dt) = recv.view(ranks());
            cx.recv(loc, n, &dt, leader, T_FANOUT)
        };
        cx.wait(vec![a]);
        cx.wait(vec![d]);
        return;
    }

    // --- Metadata: row i is member i's (the leader's own first) bytes to
    // and from every rank.
    let members = &my_group[1..];
    let metas: Vec<HostBuf> = members.iter().map(|_| HostBuf::alloc(16 * size)).collect();
    if !members.is_empty() {
        let posts = metas.iter().zip(members);
        let ids = posts
            .map(|(buf, &m)| cx.recv_bytes(buf, 0, 16 * size, m, T_META))
            .collect();
        cx.wait(ids);
    }
    let (mut sbytes, mut rbytes) = (vec![sb], vec![rb]);
    for buf in &metas {
        let raw = buf.read(0, 16 * size);
        let word = |j: usize| {
            let bytes = raw[8 * j..8 * j + 8].try_into();
            u64::from_le_bytes(bytes.expect("a count is 8 bytes"))
        };
        sbytes.push((0..size).map(|j| word(j) as usize).collect());
        rbytes.push((size..2 * size).map(|j| word(j) as usize).collect());
    }

    // --- Phase A receives: one stream per member.
    let mut streams = Vec::new();
    let mut a_ids = Vec::new();
    for (row, &m) in sbytes[1..].iter().zip(members) {
        let buf = HostBuf::alloc(row.iter().sum());
        a_ids.push(cx.recv_bytes(&buf, 0, buf.len(), m, T_FANIN));
        streams.push(buf);
    }

    // --- Phase C receives, posted before any waiting so peer leaders'
    // aggregates stream in while this node's fan-in is still draining (an
    // unposted receive would park inbound transfers at RTS and serialize
    // the leaders against each other). Node X's aggregate holds, per
    // member s of X in group order, s's blocks for my node's members in
    // group order, block (s -> d) being `rbytes[d][s]` bytes (the
    // byte-total contract makes the sender's counts and ours agree).
    let from = |s: usize| -> usize { rbytes.iter().map(|row| row[s]).sum() };
    let mut aggs: Vec<HostBuf> = h
        .groups
        .iter()
        .map(|grp| HostBuf::alloc(grp.iter().map(|&s| from(s)).sum()))
        .collect();
    let remote = (0..nn).filter(|&x| x != h.my_node);
    let c_ids = remote
        .map(|x| cx.recv_bytes(&aggs[x], 0, aggs[x].len(), h.groups[x][0], T_WIRE))
        .collect();
    streams.insert(0, HostBuf::from_vec(cx.stage_blocks(send, ranks())));
    cx.wait(a_ids);

    // --- Assemble every node's aggregate in one pass: node Y's holds,
    // per local member in group order, that member's blocks for Y's
    // members — the next section of its stream.
    let mut at = vec![0; my_group.len()];
    let out: Vec<HostBuf> = h
        .groups
        .iter()
        .map(|grp| {
            let spans = sbytes.iter().map(|row| grp.iter().map(|&j| row[j]).sum());
            let spans: Vec<usize> = spans.collect();
            let agg = HostBuf::alloc(spans.iter().sum());
            let mut off = 0;
            for ((stream, at), span) in streams.iter().zip(&mut at).zip(spans) {
                HostBuf::copy(&stream.ptr(*at), &agg.ptr(off), span);
                (*at, off) = (*at + span, off + span);
            }
            agg
        })
        .collect();
    aggs[h.my_node] = out[h.my_node].clone();

    // --- Phase B sends: one aggregate per remote node, in shifted order so
    // no two leaders hammer the same target.
    let mut b_win = ReqWindow::default();
    for r in 1..nn {
        let y = (h.my_node + r) % nn;
        let id = cx.send_bytes(&out[y], 0, out[y].len(), h.groups[y][0], T_WIRE);
        b_win.push(cx, vec![id]);
    }
    cx.wait(c_ids);

    // --- Phase D: deal every node's aggregate into per-member payloads in
    // one pass, then ship each member ONE message — the exact stream its
    // hindexed receive scatters to its displacements.
    let mut payloads = vec![Vec::new(); my_group.len()];
    for (grp, agg) in h.groups.iter().zip(aggs) {
        let raw = agg.read(0, agg.len());
        let mut off = 0;
        for &s in grp {
            for (payload, row) in payloads.iter_mut().zip(&rbytes) {
                payload.extend_from_slice(&raw[off..off + row[s]]);
                off += row[s];
            }
        }
    }
    let mut payloads = payloads.into_iter();
    let own = payloads.next().expect("the leader's own payload");
    let mut d_win = ReqWindow::default();
    for (payload, &m) in payloads.zip(members) {
        let buf = HostBuf::from_vec(payload);
        let id = cx.send_bytes(&buf, 0, buf.len(), m, T_FANOUT);
        d_win.push(cx, vec![id]);
    }
    cx.deliver_blocks(&own, recv, ranks());
    b_win.drain(cx);
    d_win.drain(cx);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `nodes` nodes, the first of them shared by two ranks.
    fn one_shared_node(nodes: usize) -> Hierarchy {
        let mut groups = vec![vec![0, 1]];
        groups.extend((2..=nodes).map(|g| vec![g]));
        Hierarchy { groups, my_node: 0 }
    }

    #[test]
    fn a_world_past_max_nodes_is_served_flat() {
        assert!(one_shared_node(MAX_NODES).beneficial());
        assert!(!one_shared_node(MAX_NODES + 1).beneficial());
    }
}
