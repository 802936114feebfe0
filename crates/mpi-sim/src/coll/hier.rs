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
//! edges by the normal staging machinery. The one exception is a result
//! every member of a node holds identically — the allreduce's: the leader
//! lands it once in its own `recvbuf` and fans it out from there, so
//! members on the leader's GPU copy it device to device.

use std::collections::HashMap;

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
        let mut idx_of_node: HashMap<usize, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut my_node = 0;
        for g in 0..c.size() {
            let node = eng.node_of(c.world_rank_of(g));
            let idx = *idx_of_node.entry(node).or_insert_with(|| {
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
        // Node aggregate sizes, and the local aggregate's member layout.
        let nb: Vec<usize> = h
            .groups
            .iter()
            .map(|grp| grp.iter().map(|&g| recv.bytes(g)).sum())
            .collect();
        let mut aggs: Vec<Option<HostBuf>> = (0..nn).map(|_| None).collect();
        let mine = HostBuf::alloc(nb[h.my_node]);
        let mut off = 0;
        let mut gids = Vec::new();
        for &g in my_group {
            gids.push(cx.recv_bytes(&mine, off, recv.bytes(g), g, T_IN));
            off += recv.bytes(g);
        }
        cx.wait(gids);
        aggs[h.my_node] = Some(mine);

        // Ring over node aggregates among the leaders.
        let li = h.my_node;
        let right = h.groups[(li + 1) % nn][0];
        let left = h.groups[(li + nn - 1) % nn][0];
        for step in 0..nn - 1 {
            let sx = (li + nn - step) % nn;
            let rx = (li + nn - step - 1) % nn;
            let t = T_RING + step as u32;
            let inbuf = HostBuf::alloc(nb[rx]);
            let rid = cx.recv_bytes(&inbuf, 0, nb[rx], left, t);
            let send_from = aggs[sx].as_ref().expect("ring block already arrived");
            let sid = cx.send_bytes(send_from, 0, nb[sx], right, t);
            cx.wait(vec![rid, sid]);
            aggs[rx] = Some(inbuf);
        }

        // Fan every node's aggregate out to each co-located member (self
        // included), bounded in flight.
        let mut win = ReqWindow::default();
        for &d in my_group {
            for (x, agg) in aggs.iter().enumerate() {
                let agg = agg.as_ref().expect("ring delivered every aggregate");
                let id = cx.send_bytes(agg, 0, nb[x], d, T_OUT + x as u32);
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
/// the node leader over shm (typed, straight out of the user buffer), the
/// leader folds all local slices, the leaders allreduce the segment over
/// the wire by reduce-scatter + allgather ([`Coll::allreduce_over`]), and
/// the leader delivers the reduced segment into its own `recvbuf` slice
/// and sends it from there, typed, into each member's. On a shared GPU
/// that send is the engine's device-to-device scheme: one D2D per member,
/// no H2D and no shm payload. A segment within the eager limit goes as the
/// packed host bytes instead. Segment `s+1`'s fan-in receives are posted
/// before segment `s` is combined, and fan-in/fan-out traffic is windowed
/// by `MAX_INFLIGHT` segments, so shm, combine and wire time overlap
/// across segments.
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
///   leader (16·P bytes), so the leader can size every aggregate without
///   global communication;
/// * **A (fan-in)** — every member sends its leader one hindexed message
///   gathering all its blocks straight out of `sendbuf`, for every rank in
///   node order (its own node and itself included); the leader stages its
///   own such stream in place;
/// * **B/C (wire)** — leaders exchange per-node aggregates pairwise: one
///   wire message per node pair instead of ppn² rank pairs. The leader
///   assembles its own node's aggregate like a remote one and keeps it;
/// * **D (fan-out)** — the leader slices every node's aggregate per member
///   and ships each member its blocks, which land at their displacements
///   via one hindexed receive; its own it delivers in place.
///
/// A member thus posts two data messages whatever the ppn: a device buffer
/// pays one pack and one unpack, not one per co-located peer.
pub(super) fn alltoallv(cx: &mut Coll, h: &Hierarchy, send: &Blocks, recv: &Blocks) {
    let me = cx.rank();
    let size = cx.size();
    let sb: Vec<usize> = (0..size).map(|j| send.bytes(j)).collect();
    let rb: Vec<usize> = (0..size).map(|j| recv.bytes(j)).collect();
    let nn = h.groups.len();
    let my_group = h.my_group();
    let nl = my_group.len();
    let mi = my_group
        .iter()
        .position(|&g| g == me)
        .expect("calling rank is in its own node group");
    let leader = my_group[0];
    let is_leader = mi == 0;
    const T_META: u32 = 1;
    const T_WIRE: u32 = 2;
    const T_FANIN: u32 = 4096;
    const T_FANOUT: u32 = 8192;

    // --- Metadata: the leader learns every local member's per-peer send
    // and receive byte counts (its own it knows locally). Serialized as
    // u64 LE: scounts-bytes then rcounts-bytes.
    let mut member_sb: Vec<Vec<usize>> = vec![Vec::new(); nl];
    let mut member_rb: Vec<Vec<usize>> = vec![Vec::new(); nl];
    member_sb[mi] = sb.clone();
    member_rb[mi] = rb.clone();
    if !is_leader {
        let mut ser = Vec::with_capacity(16 * size);
        for v in sb.iter().chain(rb.iter()) {
            ser.extend_from_slice(&(*v as u64).to_le_bytes());
        }
        let mbuf = HostBuf::from_vec(ser);
        let id = cx.send_bytes(&mbuf, 0, 16 * size, leader, T_META);
        cx.wait(vec![id]);
    } else if nl > 1 {
        let bufs: Vec<HostBuf> = (1..nl).map(|_| HostBuf::alloc(16 * size)).collect();
        let metas = bufs.iter().zip(&my_group[1..]);
        let ids = metas
            .map(|(buf, &m)| cx.recv_bytes(buf, 0, 16 * size, m, T_META))
            .collect();
        cx.wait(ids);
        let word = |raw: &[u8], j: usize| {
            u64::from_le_bytes(raw[8 * j..8 * j + 8].try_into().unwrap()) as usize
        };
        for (i, buf) in bufs.iter().enumerate() {
            let raw = buf.read(0, 16 * size);
            member_sb[i + 1] = (0..size).map(|j| word(&raw, j)).collect();
            member_rb[i + 1] = (0..size).map(|j| word(&raw, size + j)).collect();
        }
    }

    // The leader's own stream is no message: host-primitive buffers are
    // spliced into the aggregates with plain copies, anything else is
    // staged in place (`Coll::stage`/`deliver`).
    let s_host = send.host().filter(|_| is_leader);
    let r_host = recv.host().filter(|_| is_leader);

    // --- Fan-in layout: each member ships its leader ONE message — an
    // hindexed gather of every block in `sendbuf`, ordered by destination
    // node (ascending), then by destination rank in that node's group
    // order. One message per member (instead of one per member x node, or
    // one per co-located peer) keeps the per-message protocol and device
    // copy costs from swamping the aggregation win; the leader re-slices
    // the streams into per-node aggregates with local copies.
    let ranks = || h.groups.iter().flatten().copied();
    // member i's section offset for node y in its fan-in stream.
    let section_off = |i: usize, y: usize| -> usize {
        let before = h.groups[..y].iter().flatten();
        before.map(|&j| member_sb[i][j]).sum()
    };

    // --- Phase A receives (leader): one stream per other local member.
    let mut a_ids: Vec<ReqId> = Vec::new();
    let mut a_scratch: Vec<Option<HostBuf>> = (0..nl).map(|_| None).collect();
    if is_leader {
        for (i, &m) in my_group.iter().enumerate().skip(1) {
            let total = member_sb[i].iter().sum();
            let buf = HostBuf::alloc(total);
            a_ids.push(cx.recv_bytes(&buf, 0, total, m, T_FANIN));
            a_scratch[i] = Some(buf);
        }
    }

    // --- Phase A send (every member).
    let mut a_send = Vec::new();
    if !is_leader {
        let (loc, n, dt) = send.view(ranks());
        a_send.push(cx.send(loc, n, &dt, leader, T_FANIN));
    }

    // --- Phase D receive (every rank), posted before anything blocks: ONE
    // hindexed message from my leader scattering every block to its
    // displacement, ordered by source node (ascending), then by source
    // rank in group order. The leader delivers its own share in place.
    let mut d_ids = Vec::new();
    if !is_leader {
        let (loc, n, dt) = recv.view(ranks());
        d_ids.push(cx.recv(loc, n, &dt, leader, T_FANOUT));
    }

    if is_leader {
        // --- Phase C receives, posted before any waiting so peer leaders'
        // aggregates stream in while this node's fan-in is still draining
        // (an unposted receive would park inbound transfers at RTS and
        // serialize the leaders against each other).
        let mut in_agg: Vec<Option<HostBuf>> = (0..nn).map(|_| None).collect();
        let mut c_ids = Vec::new();
        for x in (0..nn).filter(|&x| x != h.my_node) {
            let total: usize = h.groups[x]
                .iter()
                .map(|&s| (0..nl).map(|i| member_rb[i][s]).sum::<usize>())
                .sum();
            let buf = HostBuf::alloc(total);
            c_ids.push(cx.recv_bytes(&buf, 0, total, h.groups[x][0], T_WIRE));
            in_agg[x] = Some(buf);
        }

        // The leader's own fan-in stream, unless spliced during assembly.
        if s_host.is_none() {
            let (loc, n, dt) = send.view(ranks());
            a_scratch[0] = Some(HostBuf::from_vec(cx.stage(&loc, n, &dt)));
        }
        cx.wait(a_ids);

        // --- Assemble per-node aggregates, this node's too: span per local
        // member (group order), each span that member's blocks for Y's
        // members in group order — copied out of the fan-in streams (or
        // straight out of sendbuf for the leader's own span).
        let mut out_agg: Vec<Option<HostBuf>> = (0..nn).map(|_| None).collect();
        for (y, grp) in h.groups.iter().enumerate() {
            let spans: Vec<usize> = (0..nl)
                .map(|i| grp.iter().map(|&j| member_sb[i][j]).sum())
                .collect();
            let buf = HostBuf::alloc(spans.iter().sum());
            let mut cur = 0usize;
            for (i, &span) in spans.iter().enumerate() {
                if let (0, Some(src)) = (i, s_host) {
                    let mut off = cur;
                    for &j in grp.iter().filter(|&&j| sb[j] > 0) {
                        HostBuf::copy(&src.add(send.displs[j]), &buf.ptr(off), sb[j]);
                        off += sb[j];
                    }
                } else {
                    let src = a_scratch[i].as_ref().expect("fan-in stream present");
                    HostBuf::copy(&src.ptr(section_off(i, y)), &buf.ptr(cur), span);
                }
                cur += span;
            }
            out_agg[y] = Some(buf);
        }
        in_agg[h.my_node] = out_agg[h.my_node].take();

        // --- Phase B sends: one aggregate per remote node, in shifted
        // order so no two leaders hammer the same target.
        let mut b_win = ReqWindow::default();
        for r in 1..nn {
            let y = (h.my_node + r) % nn;
            let buf = out_agg[y].as_ref().expect("assembled above");
            let id = cx.send_bytes(buf, 0, buf.len(), h.groups[y][0], T_WIRE);
            b_win.push(cx, vec![id]);
        }

        cx.wait(c_ids);

        // --- Phase D sends: ONE message per local member, concatenating
        // its blocks from every node's aggregate in source-node order —
        // the exact stream its hindexed receive scatters to its
        // displacements. Aggregate layout (fixed by the sender's phase
        // A/assembly): spans per source member in X's group order; within
        // a span, blocks for my node's members in group order, block
        // (s -> d) being `member_rb[d][s]` bytes (the byte-total contract
        // makes the sender's counts and ours agree). The leader's own
        // stream is delivered in place once the members' are posted.
        let mut d_win = ReqWindow::default();
        let mut own = Vec::new();
        for di in 0..nl {
            let splice = r_host.filter(|_| di == 0);
            let mut payload: Vec<u8> = Vec::new();
            for (grp, buf) in h.groups.iter().zip(&in_agg) {
                let buf = buf.as_ref().expect("every node's aggregate is here");
                let mut base = 0usize;
                for &s in grp {
                    let within: usize = (0..di).map(|i| member_rb[i][s]).sum();
                    let len = member_rb[di][s];
                    if len > 0 {
                        let bytes = buf.read(base + within, len);
                        match splice {
                            Some(dst) => dst.add(recv.displs[s]).write(&bytes),
                            None => payload.extend_from_slice(&bytes),
                        }
                    }
                    base += (0..nl).map(|i| member_rb[i][s]).sum::<usize>();
                }
            }
            if di == 0 {
                own = payload;
                continue;
            }
            let out = HostBuf::from_vec(payload);
            let id = cx.send_bytes(&out, 0, out.len(), my_group[di], T_FANOUT);
            d_win.push(cx, vec![id]);
        }
        if r_host.is_none() {
            let (loc, n, dt) = recv.view(ranks());
            cx.deliver(&own, &loc, n, &dt);
        }
        b_win.drain(cx);
        d_win.drain(cx);
    }
    cx.wait(a_send);
    cx.wait(d_ids);
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
