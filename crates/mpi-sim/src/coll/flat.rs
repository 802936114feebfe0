//! Single-level collective algorithms.
//!
//! Two families live here:
//!
//! * the **flat** algorithms — still topology-blind, but with sane
//!   resource bounds and honest scaling: pairwise alltoall(v) with a
//!   bounded in-flight window, ring allgather(v), binomial-tree reduce
//!   with double-buffered child receives. These are the fallback when a
//!   communicator has no co-located members, and the baseline the
//!   hierarchical path must beat.
//! * the **naive** algorithms — the original p2p loops (alltoall posting
//!   2·(P−1) requests at once, reduce draining P−1 sources serially
//!   through one scratch buffer). Kept as the `coll_sweep` control.

use gpu_sim::Loc;
use hostmem::HostBuf;

use super::{Blocks, Coll, Fold, ReqWindow, Tree};
use crate::datatype::Datatype;

/// The binomial tree over the whole communicator rooted at `root`.
fn tree(cx: &Coll, root: usize) -> Tree {
    let all: Vec<usize> = (0..cx.size()).collect();
    Tree::binomial(&all, root, cx.rank())
}

/// Binomial-tree broadcast from `root` at tag offset `t` — the seed
/// algorithm, shared by every algorithm family.
pub(super) fn bcast(cx: &mut Coll, buf: &Loc, count: usize, dtype: &Datatype, root: usize, t: u32) {
    let tree = tree(cx, root);
    cx.bcast_over(&tree, buf, count, dtype, t);
}

/// Linear gather: every other rank sends its block to the root, which
/// copies its own in place.
pub(super) fn gather(cx: &mut Coll, sendbuf: &Loc, recv: &Blocks, root: usize) {
    let me = cx.rank();
    if me != root {
        let id = cx.send(sendbuf.clone(), recv.counts[me], recv.dtype, root, 0);
        return cx.wait(vec![id]);
    }
    let peers = (0..cx.size()).filter(|&i| i != me);
    let ids = peers.map(|i| cx.recv(recv.block(i), recv.counts[i], recv.dtype, i, 0));
    let ids = ids.collect();
    cx.copy_own((sendbuf.clone(), recv.counts[me], recv.dtype), recv.at(me));
    cx.wait(ids);
}

/// Linear scatter: the root ships block `i` to every other rank `i` and
/// copies its own in place.
pub(super) fn scatter(cx: &mut Coll, send: &Blocks, recvbuf: &Loc, root: usize) {
    let me = cx.rank();
    if me != root {
        let id = cx.recv(recvbuf.clone(), send.counts[me], send.dtype, root, 0);
        return cx.wait(vec![id]);
    }
    let peers = (0..cx.size()).filter(|&i| i != me);
    let ids = peers.map(|i| cx.send(send.block(i), send.counts[i], send.dtype, i, 0));
    let ids = ids.collect();
    cx.copy_own(send.at(me), (recvbuf.clone(), send.counts[me], send.dtype));
    cx.wait(ids);
}

/// Ring allgatherv: each rank forwards one block per step to its right
/// neighbour, so every link carries exactly one block at a time and no
/// rank is a funnel. The own block is copied into `recvbuf` in place.
pub(super) fn allgatherv(
    cx: &mut Coll,
    sendbuf: &Loc,
    scount: usize,
    sdtype: &Datatype,
    recv: &Blocks,
) {
    let (me, n) = (cx.rank(), cx.size());
    cx.copy_own((sendbuf.clone(), scount, sdtype), recv.at(me));
    let (right, left) = ((me + 1) % n, (me + n - 1) % n);
    for step in 0..n - 1 {
        let sb = (me + n - step) % n;
        let rb = (me + n - step - 1) % n;
        let t = 1 + (step % 8192) as u32;
        let rid = cx.recv(recv.block(rb), recv.counts[rb], recv.dtype, left, t);
        let sid = cx.send(recv.block(sb), recv.counts[sb], recv.dtype, right, t);
        cx.wait(vec![rid, sid]);
    }
}

/// Pairwise alltoallv: at step `r` every rank sends to `(me + r) % P` and
/// receives from `(me − r) % P` — each link carries one exchange per step
/// — with at most [`MAX_INFLIGHT`](super::MAX_INFLIGHT) steps outstanding.
/// The own block is copied in place first, so the steps start at 1.
pub(super) fn alltoallv(cx: &mut Coll, send: &Blocks, recv: &Blocks) {
    let (me, n) = (cx.rank(), cx.size());
    cx.copy_own(send.at(me), recv.at(me));
    let mut win = ReqWindow::default();
    for r in 1..n {
        let sp = (me + r) % n;
        let rp = (me + n - r) % n;
        let t = (r % 8192) as u32;
        let rid = cx.recv(recv.block(rp), recv.counts[rp], recv.dtype, rp, t);
        let sid = cx.send(send.block(sp), send.counts[sp], send.dtype, sp, t);
        win.push(cx, vec![rid, sid]);
    }
    win.drain(cx);
}

/// Binomial-tree reduce with double-buffered child receives: the next
/// child's wire transfer is posted before the previous child's bytes are
/// combined, so receive and combine overlap instead of serializing.
pub(super) fn reduce(
    cx: &mut Coll,
    sendbuf: &Loc,
    recvbuf: &Loc,
    count: usize,
    fold: Fold,
    root: usize,
) {
    let tree = tree(cx, root);
    let mut acc = cx.stage(sendbuf, count, fold.dtype);
    cx.reduce_over(&tree, &mut acc, fold, 1);
    if cx.rank() == root {
        cx.deliver(&acc, recvbuf, count, fold.dtype);
    }
}

/// The seed alltoall: every transfer posted nonblocking at once — 2·(P−1)
/// requests per rank, P² in flight fabric-wide — and the own block copied
/// in place meanwhile. Kept as the `coll_sweep` control.
pub(super) fn naive_alltoall(cx: &mut Coll, send: &Blocks, recv: &Blocks) {
    let (me, size) = (cx.rank(), cx.size());
    let mut ids = Vec::with_capacity(2 * size);
    for peer in (0..size).filter(|&p| p != me) {
        ids.push(cx.recv(recv.block(peer), recv.counts[peer], recv.dtype, peer, 0));
    }
    for peer in (0..size).filter(|&p| p != me) {
        ids.push(cx.send(send.block(peer), send.counts[peer], send.dtype, peer, 0));
    }
    cx.copy_own(send.at(me), recv.at(me));
    cx.wait(ids);
}

/// The seed reduce: the root drains all P−1 contributions one at a time
/// through a single reused scratch buffer, serializing the whole
/// collective. Kept as the `coll_sweep` control.
pub(super) fn naive_reduce(
    cx: &mut Coll,
    sendbuf: &Loc,
    recvbuf: &Loc,
    count: usize,
    fold: Fold,
    root: usize,
) {
    let bytes = count * fold.dtype.size();
    if cx.rank() != root {
        let id = cx.send(sendbuf.clone(), count, fold.dtype, root, 0);
        cx.wait(vec![id]);
        return;
    }
    let mut acc = cx.stage(sendbuf, count, fold.dtype);
    let scratch = HostBuf::alloc(bytes);
    for src in (0..cx.size()).filter(|&src| src != root) {
        let id = cx.recv_bytes(&scratch, 0, bytes, src, 0);
        cx.wait(vec![id]);
        fold.combine(&mut acc, &scratch.read(0, bytes));
    }
    cx.deliver(&acc, recvbuf, count, fold.dtype);
}
