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
//!   partial reduction), so the HCA sees one stream per node pair. The
//!   alltoallv splits its wire phase over several *leads* per node, as many
//!   as [`LeadPrice`] says pay for their extra shm exchanges: each lead
//!   serves a run of the other nodes, so the node pairs' aggregates leave
//!   from K CPUs instead of queuing on one.
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
//! In every collective, a representative's, leader's or lead's own
//! contribution is a member's that never travels: it is staged in place
//! ([`Coll::stage`], [`Coll::stage_blocks`]) where a member's would be
//! sent, and its share of the result delivered in place where a member's
//! would be received.

use gpu_sim::Loc;
use hostmem::HostBuf;

use std::ops::Range;

use ib_sim::Route;

use super::{Blocks, Coll, Fold, ReqWindow, Tree, PIPELINE_CHUNK};
use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::engine::Engine;
use crate::pack::CpuModel;
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
/// The alltoallv's wire phase runs on node `x`'s first `leads[x]` members
/// ([`LeadPrice`]).
pub(crate) struct Hierarchy {
    groups: Vec<Vec<usize>>,
    my_node: usize,
    leads: Vec<usize>,
}

/// What a node pays for how many leads share the alltoallv's wire phase,
/// in the engine's fixed CPU charges: `wire` is one eager exchange over the
/// HCA, `intra` the three extra eager exchanges over shm (metadata, section
/// and piece) that one more lead costs every rank of the node. An exchange
/// is a message each way, each paying the send call, the post and the
/// receiver's packet handling; the byte-proportional copies are the same
/// whatever the split, so they do not enter the price.
struct LeadPrice {
    wire: u64,
    intra: u64,
}

impl LeadPrice {
    fn new(cpu: &CpuModel, hca_post_ns: u64, shm_post_ns: u64) -> Self {
        let exchange = |post: u64| 2 * (cpu.mpi_call_ns + post + cpu.handle_pkt_ns);
        LeadPrice {
            wire: exchange(hca_post_ns),
            intra: 3 * exchange(shm_post_ns),
        }
    }

    /// The number of leads, at most `ranks`, that minimizes the busiest
    /// lead's ⌈(nn−1)/K⌉ wire exchanges plus the (K−1) extra leads' price;
    /// the fewest on a tie.
    fn leads(&self, nn: usize, ranks: usize) -> usize {
        let cost = |k: usize| (nn - 1).div_ceil(k) as u64 * self.wire + (k - 1) as u64 * self.intra;
        (1..=ranks)
            .min_by_key(|&k| cost(k))
            .expect("a node has a rank")
    }
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
        let post = |route| eng.nic.post_overhead_ns(route);
        let price = LeadPrice::new(eng.cpu(), post(Route::Hca), post(Route::Shm));
        let nn = groups.len();
        let leads = groups.iter().map(|g| price.leads(nn, g.len())).collect();
        Hierarchy {
            groups,
            my_node,
            leads,
        }
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

    /// Which of node `x`'s leads serves node `y` in the alltoallv: lead `i`
    /// serves the nodes with `y·K/nn == i`, a run of ⌈nn/K⌉ or ⌊nn/K⌋ nodes
    /// in node order, `x` itself included in one of them.
    fn lead_for(&self, x: usize, y: usize) -> usize {
        y * self.leads[x] / self.groups.len()
    }

    /// Node `y`'s lead for node `x`: the wire partner of `x`'s lead for `y`.
    fn partner(&self, x: usize, y: usize) -> usize {
        self.groups[y][self.lead_for(y, x)]
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
/// wire message per remote node, no intermediate copy at the root. A
/// representative's own block is copied in place.
pub(super) fn gather(cx: &mut Coll, h: &Hierarchy, sendbuf: &Loc, recv: &Blocks, root: usize) {
    let me = cx.rank();
    let reps = h.reps(root);
    let my_rep = reps[h.my_node];
    const T_BLOCK: u32 = 1;
    const T_AGG: u32 = 2;
    let mine = (sendbuf.clone(), recv.counts[me], recv.dtype);

    if me != my_rep {
        let id = cx.send(mine.0, mine.1, mine.2, my_rep, T_BLOCK);
        return cx.wait(vec![id]);
    }
    let mut ids = Vec::new();
    if me == root {
        for (grp, &rep) in h.groups.iter().zip(&reps) {
            if rep == root {
                // Blocks from my own node arrive individually, typed.
                for &g in grp.iter().filter(|&&g| g != me) {
                    ids.push(cx.recv(recv.block(g), recv.counts[g], recv.dtype, g, T_BLOCK));
                }
            } else {
                // A remote node's aggregate lands via one hindexed view
                // scattering each member's block to its offset.
                let (loc, n, dt) = recv.view(grp.iter().copied());
                ids.push(cx.recv(loc, n, &dt, rep, T_AGG));
            }
        }
        cx.copy_own(mine, recv.at(me));
        return cx.wait(ids);
    }
    // Aggregate local blocks (packed, member order), mine staged into my
    // slot, and forward once.
    let (grp, bytes) = (h.my_group(), recv.bytes(me));
    let scratch = HostBuf::alloc(grp.len() * bytes);
    for (i, &g) in grp.iter().enumerate() {
        if g != me {
            ids.push(cx.recv_bytes(&scratch, i * bytes, bytes, g, T_BLOCK));
        } else {
            scratch.write(i * bytes, &cx.stage(&mine.0, mine.1, mine.2));
        }
    }
    cx.wait(ids);
    let id = cx.send_bytes(&scratch, 0, grp.len() * bytes, root, T_AGG);
    cx.wait(vec![id]);
}

/// Hierarchical scatter — the mirror of [`gather`]: the root sends each
/// remote node one hindexed aggregate (gathered straight out of
/// `sendbuf`), whose representative splits it over shm. A representative's
/// own block is copied in place.
pub(super) fn scatter(cx: &mut Coll, h: &Hierarchy, send: &Blocks, recvbuf: &Loc, root: usize) {
    let me = cx.rank();
    let reps = h.reps(root);
    let my_rep = reps[h.my_node];
    const T_BLOCK: u32 = 1;
    const T_AGG: u32 = 2;
    let mine = (recvbuf.clone(), send.counts[me], send.dtype);

    // My block arrives typed from whoever distributes it to me: the root
    // itself on the root's node, my representative elsewhere.
    if me != my_rep {
        let id = cx.recv(mine.0, mine.1, mine.2, my_rep, T_BLOCK);
        return cx.wait(vec![id]);
    }
    let mut win = ReqWindow::default();
    if me == root {
        for (grp, &rep) in h.groups.iter().zip(&reps) {
            if rep == root {
                for &g in grp.iter().filter(|&&g| g != me) {
                    let id = cx.send(send.block(g), send.counts[g], send.dtype, g, T_BLOCK);
                    win.push(cx, vec![id]);
                }
            } else {
                let (loc, n, dt) = send.view(grp.iter().copied());
                let id = cx.send(loc, n, &dt, rep, T_AGG);
                win.push(cx, vec![id]);
            }
        }
        cx.copy_own(send.at(me), mine);
        return win.drain(cx);
    }
    let (grp, bytes) = (h.my_group(), send.bytes(me));
    let scratch = HostBuf::alloc(grp.len() * bytes);
    let agg = cx.recv_bytes(&scratch, 0, grp.len() * bytes, root, T_AGG);
    cx.wait(vec![agg]);
    for (i, &g) in grp.iter().enumerate() {
        if g != me {
            let id = cx.send_bytes(&scratch, i * bytes, bytes, g, T_BLOCK);
            win.push(cx, vec![id]);
        } else {
            cx.deliver(&scratch.read(i * bytes, bytes), &mine.0, mine.1, mine.2);
        }
    }
    win.drain(cx);
}

/// Hierarchical allgatherv: members ship their block to the node leader
/// over shm; leaders run a ring over *node aggregates* (each wire step
/// carries one node's concatenated blocks); the leader then fans every
/// node's aggregate out to each other co-located member, which receives it
/// with an hindexed view placing the blocks at their displacements. The
/// leader stages its own block into its node's aggregate and delivers
/// every aggregate into its own `recvbuf` in place.
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

    if me != leader {
        // Ship my block to my node leader, and post the fan-out receives:
        // one hindexed message per node, scattering that node's blocks to
        // their displacements.
        let mut ids = vec![cx.send(sendbuf.clone(), scount, sdtype, leader, T_IN)];
        for (x, grp) in h.groups.iter().enumerate() {
            let (loc, n, dt) = recv.view(grp.iter().copied());
            ids.push(cx.recv(loc, n, &dt, leader, T_OUT + x as u32));
        }
        return cx.wait(ids);
    }

    // Every node's aggregate (its members' blocks in group order); my
    // node's fills from the fan-in and my own block, the others from the
    // ring.
    let aggs: Vec<HostBuf> = h
        .groups
        .iter()
        .map(|grp| HostBuf::alloc(grp.iter().map(|&g| recv.bytes(g)).sum()))
        .collect();
    let mut off = recv.bytes(me);
    let mut gids = Vec::new();
    for &g in &my_group[1..] {
        gids.push(cx.recv_bytes(&aggs[h.my_node], off, recv.bytes(g), g, T_IN));
        off += recv.bytes(g);
    }
    aggs[h.my_node].write(0, &cx.stage(sendbuf, scount, sdtype));
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

    // Fan every node's aggregate out to each other co-located member,
    // bounded in flight, and land them all in my own recvbuf.
    let mut win = ReqWindow::default();
    for &d in &my_group[1..] {
        for (x, agg) in aggs.iter().enumerate() {
            let id = cx.send_bytes(agg, 0, agg.len(), d, T_OUT + x as u32);
            win.push(cx, vec![id]);
        }
    }
    for (grp, agg) in h.groups.iter().zip(&aggs) {
        cx.deliver_blocks(agg, recv, grp.iter().copied());
    }
    win.drain(cx);
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

/// Hierarchical alltoallv over `K` leads per node ([`LeadPrice`]). Each lead
/// of node X serves a run of nodes ([`Hierarchy::lead_for`]) and swaps with
/// each remote one, over the wire, the aggregate of every block X's ranks
/// send its ranks: one wire message per node pair instead of ppn² rank
/// pairs, spread over K CPUs. Around it, three phases over shm:
///
/// * **metadata** — every rank sends each other lead its send and receive
///   byte counts for the ranks that lead serves. A lead keeps one row of
///   each per local rank: the one place its aggregates' layout is decided;
/// * **fan-in** — every rank sends each other lead its *section*: the run
///   of its stream (its blocks for every rank in node order, then group
///   order) that the lead serves. A lead cuts the sections into its nodes'
///   aggregates in one pass, one cursor per section, and swaps them;
/// * **fan-out** — a lead deals every aggregate it holds into one *piece*
///   per local rank in one pass and ships each rank its piece: the run of
///   its payload that the lead serves.
///
/// With one lead, its members send their stream and receive their payload
/// typed, as one hindexed message each: a device buffer pays one pack and
/// one unpack. With more, every rank stages its stream in place once
/// ([`Coll::stage_blocks`]) while its metadata is in flight, receives its
/// pieces into one host payload and delivers that once
/// ([`Coll::deliver_blocks`]). A lead's own section and piece never travel.
pub(super) fn alltoallv(cx: &mut Coll, h: &Hierarchy, send: &Blocks, recv: &Blocks) {
    let (me, nn, x) = (cx.rank(), h.groups.len(), h.my_node);
    let (grp, k) = (h.my_group(), h.leads[x]);
    const T_META: u32 = 1;
    const T_WIRE: u32 = 2;
    const T_FANIN: u32 = 4096;
    const T_FANOUT: u32 = 8192;
    let ranks = |nodes: Range<usize>| h.groups[nodes].iter().flatten().copied();
    // Lead i's run: the nodes y with `h.lead_for(x, y) == i`.
    let owned = |i: usize| (i * nn).div_ceil(k)..((i + 1) * nn).div_ceil(k);
    let sb_of = |nodes: Range<usize>| ranks(nodes).map(|j| send.bytes(j)).sum::<usize>();
    let rb_of = |nodes: Range<usize>| ranks(nodes).map(|j| recv.bytes(j)).sum::<usize>();
    let lead = grp[..k].iter().position(|&l| l == me);
    let other_leads = || {
        grp[..k]
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, l)| l != me)
    };
    let bytes_of = |b: &Blocks, i: usize| ranks(owned(i)).map(|j| b.bytes(j)).collect::<Vec<_>>();

    // --- Metadata, as u64 LE: my send, then receive, bytes of lead i's ranks.
    let mut meta = Vec::new();
    for (i, l) in other_leads() {
        let words = bytes_of(send, i).into_iter().chain(bytes_of(recv, i));
        let buf = HostBuf::from_vec(words.flat_map(|v| (v as u64).to_le_bytes()).collect());
        meta.push(cx.send_bytes(&buf, 0, buf.len(), l, T_META));
    }
    let peers: Vec<usize> = match lead {
        Some(_) => grp.iter().copied().filter(|&g| g != me).collect(),
        None => Vec::new(),
    };
    let words = lead.map_or(0, |i| 2 * ranks(owned(i)).count());
    let metas: Vec<HostBuf> = peers.iter().map(|_| HostBuf::alloc(8 * words)).collect();
    for (buf, &m) in metas.iter().zip(&peers) {
        meta.push(cx.recv_bytes(buf, 0, buf.len(), m, T_META));
    }
    // Every rank of a node with several leads stages its stream while the
    // metadata travels; a single leader stages once its receives are
    // posted, below.
    let staged = (k > 1).then(|| cx.stage_blocks(send, ranks(0..nn)));
    if !meta.is_empty() {
        cx.wait(meta);
    }

    if lead.is_none() && k == 1 {
        // One stream out and one payload in. Each view's datatype is dropped
        // once posted: held across the waits, every member's cached layout
        // plans would be resident at once.
        let a = {
            let (loc, n, dt) = send.view(ranks(0..nn));
            cx.send(loc, n, &dt, grp[0], T_FANIN)
        };
        let d = {
            let (loc, n, dt) = recv.view(ranks(0..nn));
            cx.recv(loc, n, &dt, grp[0], T_FANOUT)
        };
        cx.wait(vec![a]);
        cx.wait(vec![d]);
        return;
    }

    // --- Pieces from the other leads land at their runs of my payload.
    let payload = HostBuf::alloc(rb_of(0..nn));
    let mut pieces = Vec::new();
    for (i, l) in other_leads() {
        let (at, len) = (rb_of(0..owned(i).start), rb_of(owned(i)));
        pieces.push(cx.recv_bytes(&payload, at, len, l, T_FANOUT));
    }

    // --- A lead's rows, sections and wire receives, posted before any
    // waiting so peer leads' aggregates stream in while the fan-in drains
    // (an unposted receive would park inbound transfers at RTS and
    // serialize the leads against each other). Row `(sb, rb)` of a local
    // rank holds its bytes to and from every rank I serve; the aggregate
    // of my node for node y holds, per rank s of y in group order, s's
    // blocks for my node's ranks in group order.
    let mine = lead.map_or(0..0, owned);
    let mut base = vec![0];
    for y in mine.clone() {
        base.push(base[base.len() - 1] + h.groups[y].len());
    }
    let at = |y: usize| base[y - mine.start]..base[y - mine.start + 1];
    let mut rows: Vec<(Vec<usize>, Vec<usize>)> = metas
        .iter()
        .map(|buf| {
            let raw = buf.read(0, 8 * words);
            let word = |j: usize| {
                let bytes = raw[8 * j..8 * j + 8].try_into();
                u64::from_le_bytes(bytes.expect("a count is 8 bytes")) as usize
            };
            let half = words / 2;
            (
                (0..half).map(word).collect(),
                (half..words).map(word).collect(),
            )
        })
        .collect();
    drop(metas);
    let mut sec_ids = Vec::new();
    let sections: Vec<HostBuf> = rows
        .iter()
        .zip(&peers)
        .map(|((sb, _), &m)| {
            let buf = HostBuf::alloc(sb.iter().sum());
            sec_ids.push(cx.recv_bytes(&buf, 0, buf.len(), m, T_FANIN));
            buf
        })
        .collect();
    if let Some(i) = lead {
        rows.insert(i, (bytes_of(send, i), bytes_of(recv, i)));
    }
    let from = |y: usize| -> usize {
        rows.iter()
            .map(|(_, rb)| rb[at(y)].iter().sum::<usize>())
            .sum()
    };
    let mut aggs: Vec<HostBuf> = mine.clone().map(|y| HostBuf::alloc(from(y))).collect();
    let mut wire_ids = Vec::new();
    for (y, agg) in mine.clone().zip(&aggs).filter(|&(y, _)| y != x) {
        wire_ids.push(cx.recv_bytes(agg, 0, agg.len(), h.partner(x, y), T_WIRE));
    }

    // --- My sections to the other leads, out of my stream staged in place.
    let stream = staged.unwrap_or_else(|| cx.stage_blocks(send, ranks(0..nn)));
    let mut outs = Vec::new();
    for (i, l) in other_leads() {
        let (at, len) = (sb_of(0..owned(i).start), sb_of(owned(i)));
        outs.push(cx.send_bytes(&stream, at, len, l, T_FANIN));
    }

    let (mut wire, mut fanout) = (ReqWindow::default(), ReqWindow::default());
    if let Some(i) = lead {
        cx.wait(sec_ids);
        // Assemble my nodes' aggregates in one pass: node y's holds, per
        // local rank in group order, that rank's blocks for y's ranks — the
        // next run of its section.
        let mut cursors: Vec<(&HostBuf, usize)> = sections.iter().map(|s| (s, 0)).collect();
        cursors.insert(i, (&stream, sb_of(0..mine.start)));
        let out: Vec<HostBuf> = mine
            .clone()
            .map(|y| {
                let spans = rows.iter().map(|(sb, _)| sb[at(y)].iter().sum());
                let spans: Vec<usize> = spans.collect();
                let mut agg = vec![0; spans.iter().sum()];
                let mut off = 0;
                for ((src, at), span) in cursors.iter_mut().zip(spans) {
                    src.read_into(*at, &mut agg[off..off + span]);
                    (*at, off) = (*at + span, off + span);
                }
                HostBuf::from_vec(agg)
            })
            .collect();
        drop(cursors);
        drop((sections, stream));

        // One aggregate per remote node I serve, my run rotated by my node
        // so that the leads serving one run do not all hammer its first
        // node; my own node's aggregate I keep.
        for r in 0..mine.len() {
            let y = mine.start + (x + r) % mine.len();
            if y != x {
                let agg = &out[y - mine.start];
                let id = cx.send_bytes(agg, 0, agg.len(), h.partner(x, y), T_WIRE);
                wire.push(cx, vec![id]);
            }
        }
        if mine.contains(&x) {
            aggs[x - mine.start] = out[x - mine.start].clone();
        }
        drop(out);
        cx.wait(wire_ids);

        // Deal every aggregate into per-rank pieces in one pass, then ship
        // each rank ONE message; mine lands in my payload.
        let sizes = rows.iter().map(|(_, rb)| rb.iter().sum());
        let mut deal: Vec<Vec<u8>> = sizes.map(Vec::with_capacity).collect();
        for (y, agg) in mine.clone().zip(aggs) {
            let raw = agg.read(0, agg.len());
            let mut off = 0;
            for t in at(y) {
                for (piece, (_, rb)) in deal.iter_mut().zip(&rows) {
                    piece.extend_from_slice(&raw[off..off + rb[t]]);
                    off += rb[t];
                }
            }
        }
        for (piece, &d) in deal.into_iter().zip(grp) {
            if d == me {
                payload.write(rb_of(0..mine.start), &piece);
            } else {
                let buf = HostBuf::from_vec(piece);
                let id = cx.send_bytes(&buf, 0, buf.len(), d, T_FANOUT);
                fanout.push(cx, vec![id]);
            }
        }
    } else {
        drop(stream);
    }
    if !pieces.is_empty() {
        cx.wait(pieces);
    }
    cx.deliver_blocks(&payload, recv, ranks(0..nn));
    wire.drain(cx);
    fanout.drain(cx);
    if !outs.is_empty() {
        cx.wait(outs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `nodes` nodes, the first of them shared by two ranks.
    fn one_shared_node(nodes: usize) -> Hierarchy {
        let mut groups = vec![vec![0, 1]];
        groups.extend((2..=nodes).map(|g| vec![g]));
        let leads = vec![1; nodes];
        Hierarchy {
            groups,
            my_node: 0,
            leads,
        }
    }

    #[test]
    fn a_world_past_max_nodes_is_served_flat() {
        assert!(one_shared_node(MAX_NODES).beneficial());
        assert!(!one_shared_node(MAX_NODES + 1).beneficial());
    }

    #[test]
    fn the_lead_count_is_priced_on_the_calibrated_models() {
        use ib_sim::{NetModel, ShmModel};
        let (hca, shm) = (NetModel::qdr(), ShmModel::westmere());
        let price = LeadPrice::new(
            &CpuModel::westmere(),
            hca.post_overhead_ns,
            shm.post_overhead_ns,
        );
        assert_eq!((price.wire, price.intra), (1300, 2700));
        let nodes = [2, 4, 6, 8, 16, 64];
        let table = |ranks: usize| nodes.map(|nn| price.leads(nn, ranks));
        assert_eq!(table(4), [1, 1, 1, 2, 3, 4], "4 ranks per node");
        assert_eq!(table(8), [1, 1, 1, 2, 3, 5], "8 ranks per node");
        // A node of fewer ranks than the price asks for leads on all of them.
        assert_eq!(price.leads(64, 2), 2);
        assert_eq!(price.leads(64, 1), 1);
    }

    #[test]
    fn leads_serve_runs_of_nodes_and_pair_up() {
        // 16 nodes of 4, 2 and 1 ranks: 3, 2 and 1 leads.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for x in 0..16 {
            let first = groups.iter().map(Vec::len).sum::<usize>();
            groups.push((first..first + [4, 2, 1][x % 3]).collect());
        }
        let price = LeadPrice::new(&CpuModel::westmere(), 300, 100);
        let leads = groups.iter().map(|g| price.leads(16, g.len())).collect();
        let h = Hierarchy {
            groups,
            my_node: 0,
            leads,
        };
        assert_eq!(h.leads[..3], [3, 2, 1]);
        for x in 0..16 {
            let k = h.leads[x];
            let lead: Vec<usize> = (0..16).map(|y| h.lead_for(x, y)).collect();
            assert!(lead.windows(2).all(|w| w[0] <= w[1]), "node {x}: {lead:?}");
            for i in 0..k {
                let run = lead.iter().filter(|&&l| l == i).count();
                assert!(
                    run == 16 / k || run == 16usize.div_ceil(k),
                    "node {x} lead {i}: {run}"
                );
            }
            for y in (0..16).filter(|&y| y != x) {
                // x's lead for y swaps with y's lead for x.
                let mine = h.groups[x][lead[y]];
                assert_eq!(h.partner(y, x), mine);
                assert!(h.groups[y][..h.leads[y]].contains(&h.partner(x, y)));
            }
        }
    }
}
