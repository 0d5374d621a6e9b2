//! Sparse sensor-correlation attention: neighbor lists and the
//! gather/scatter-softmax kernels.
//!
//! The paper's sensor correlation attention (Eq. 15–16) is dense over
//! all sensor pairs — O(N²) in both compute and memory, the one
//! asymptotic wall between this reproduction and city-scale sensor
//! counts. This module restricts each sensor's attention to an explicit
//! neighbor set held in a [`SensorGraph`] (CSR layout), making the op
//! O(N·k) at fixed neighborhood size k.
//!
//! **Determinism / dense-equivalence contract.** Every row's scalar
//! chain replicates the dense path op for op and in the same fold
//! order: scores are ascending-`d` dot products (the reference GEMM's
//! per-element chain, one fused multiply-add per term), the row softmax
//! is the exact `softmax_lastdim` chain (ascending max fold,
//! [`crate::mathfn::exp_sub_slice`], ascending sum, divide), and the
//! output mix accumulates neighbors in ascending index order (the
//! reference `weights @ h` contraction, fused per term too). In the VJP
//! the `dw` / `dq` / `dk` / `dh` contractions fuse each term; the
//! softmax-VJP row sum is the dense chain's `mul` + `sum_axis` and
//! stays unfused. The walks run through an `avx2,fma` instantiation
//! from `Isa::Avx2` up, so `mul_add` is one `vfmadd` there and libm's
//! correctly rounded `fmaf` on the scalar tier — the same bits. Score
//! and `dw` chains run four neighbours side by side, each chain
//! unchanged. At the serving width `d = 32` on an AVX-512 host the
//! forward puts sixteen rows in the lanes instead (`forward_lanes`): a
//! row's `t`-th edge score is one lane of a zmm chain, the softmax one
//! `exp_v16` per edge slot (bitwise `exp_f32`), the mix two zmm per row.
//! Neighbor lists are stored sorted ascending, so a *complete*
//! graph (every sensor adjacent to every sensor, self included — the
//! "k = N−1" configuration) reproduces the dense kernel **bitwise**, on
//! the forward, backward, and frozen-inference paths alike. Work is
//! split across the pool by row; rows are independent and chunk
//! boundaries depend only on element counts, so results are identical
//! at any `STWA_THREADS` setting.
//!
//! A sensor with an *empty* neighbor row (degenerate graph) contributes
//! no edges: its output row is zero and the softmax is never evaluated
//! over an empty set, so no NaN can appear. Opting into
//! [`SensorGraph::with_identity_passthrough`] changes that one case —
//! an isolated sensor forwards its own summary `h_i` unchanged (and its
//! VJP routes `g_i` straight back into `dh_i`) instead of going dark,
//! which keeps severed sensors serving their last-known dynamics rather
//! than predicting from a zeroed embedding. The default stays off so
//! the zero-row contract above is unchanged.

#[cfg(target_arch = "x86_64")]
use crate::isa::{self, Isa};
use crate::tensor::{elementwise_chunks, PARALLEL_ELEMS};
use crate::{memory, Result, Tensor, TensorError};
use std::ops::Range;
use stwa_pool::SendPtr;

/// CSR neighbor lists over `n` sensors, plus the transpose index the
/// backward pass needs to scatter gradients deterministically.
///
/// Rows are sorted ascending and duplicate-free; the transpose is built
/// once at construction so every consumer (forward gather, VJP
/// scatter, frozen inference) shares one layout. Neighbor ids are `u32`
/// — 100k-sensor metro deployments fit with room to spare — which keeps
/// the hot gather loops cache-dense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensorGraph {
    n: usize,
    /// Row start offsets into `neighbors`, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated neighbor lists, ascending within each row.
    neighbors: Vec<u32>,
    /// Transpose row offsets, length `n + 1`: incoming edges per sensor.
    t_offsets: Vec<usize>,
    /// Source row `i` of each incoming edge, ascending within each row.
    t_src: Vec<u32>,
    /// Forward edge index of each incoming edge (into `neighbors`).
    t_edge: Vec<u32>,
    /// When set, an isolated sensor (empty neighbor row) passes its own
    /// summary through unchanged instead of emitting zeros.
    identity_passthrough: bool,
}

impl SensorGraph {
    /// Build from explicit per-sensor neighbor lists.
    ///
    /// Each list must be sorted ascending, duplicate-free, and in range;
    /// empty lists are allowed (isolated sensors). Lists are taken
    /// verbatim — callers decide whether a sensor neighbors itself
    /// (the adjacency-derived builders below always include self, since
    /// dense attention always attends the self pair).
    pub fn from_neighbor_lists(n: usize, lists: &[Vec<usize>]) -> Result<SensorGraph> {
        if lists.len() != n {
            return Err(TensorError::Invalid(format!(
                "SensorGraph: {} lists for {} sensors",
                lists.len(),
                n
            )));
        }
        let nnz: usize = lists.iter().map(Vec::len).sum();
        if nnz >= u32::MAX as usize || n >= u32::MAX as usize {
            return Err(TensorError::Invalid(
                "SensorGraph: too many sensors/edges for u32 ids".into(),
            ));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(nnz);
        offsets.push(0);
        for (i, list) in lists.iter().enumerate() {
            let mut prev: Option<usize> = None;
            for &j in list {
                if j >= n {
                    return Err(TensorError::Invalid(format!(
                        "SensorGraph: neighbor {j} out of range for {n} sensors"
                    )));
                }
                if prev.is_some_and(|p| p >= j) {
                    return Err(TensorError::Invalid(format!(
                        "SensorGraph: row {i} not sorted ascending / has duplicates"
                    )));
                }
                prev = Some(j);
                neighbors.push(j as u32);
            }
            offsets.push(neighbors.len());
        }
        // Transpose via counting sort. Walking forward edges in row-major
        // (ascending i) order fills each transpose row with its sources
        // already ascending — exactly the contraction order the dense
        // `matmul_tn` VJPs reduce in.
        let mut t_counts = vec![0usize; n + 1];
        for &j in &neighbors {
            t_counts[j as usize + 1] += 1;
        }
        let mut t_offsets = t_counts;
        for v in 1..=n {
            t_offsets[v] += t_offsets[v - 1];
        }
        let mut cursor = t_offsets.clone();
        let mut t_src = vec![0u32; nnz];
        let mut t_edge = vec![0u32; nnz];
        for i in 0..n {
            let lo = offsets[i];
            for (e, &jn) in neighbors[lo..offsets[i + 1]].iter().enumerate() {
                let j = jn as usize;
                let slot = cursor[j];
                cursor[j] += 1;
                t_src[slot] = i as u32;
                t_edge[slot] = (lo + e) as u32;
            }
        }
        Ok(SensorGraph {
            n,
            offsets,
            neighbors,
            t_offsets,
            t_src,
            t_edge,
            identity_passthrough: false,
        })
    }

    /// Opt isolated sensors into identity passthrough: an empty neighbor
    /// row forwards `h_i` unchanged (VJP: `dh_i += g_i`) instead of
    /// zeroing the sensor out. Rows with at least one neighbor are
    /// untouched — in particular this adds **no** self-loop to rows that
    /// merely omit `i` from their own list.
    pub fn with_identity_passthrough(mut self) -> SensorGraph {
        self.identity_passthrough = true;
        self
    }

    /// Whether isolated sensors pass their summary through unchanged.
    pub fn identity_passthrough(&self) -> bool {
        self.identity_passthrough
    }

    /// Neighbors = every sensor (self included): the `k = N−1`
    /// configuration whose attention equals the dense kernel bitwise.
    pub fn complete(n: usize) -> SensorGraph {
        let all: Vec<usize> = (0..n).collect();
        let lists: Vec<Vec<usize>> = (0..n).map(|_| all.clone()).collect();
        SensorGraph::from_neighbor_lists(n, &lists).expect("complete graph is valid")
    }

    /// Build from a dense `[n, n]` adjacency matrix: `j` neighbors `i`
    /// when `adj[i][j] != 0`, and every sensor neighbors itself (dense
    /// attention always scores the self pair). This is the bridge from
    /// the adjacency the DCRNN/STGCN/AGCRN baselines already construct.
    pub fn from_adjacency(adj: &Tensor) -> Result<SensorGraph> {
        let shape = adj.shape();
        if shape.len() != 2 || shape[0] != shape[1] {
            return Err(TensorError::Invalid(format!(
                "SensorGraph::from_adjacency: expected square [n, n], got {shape:?}"
            )));
        }
        let n = shape[0];
        let data = adj.data();
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j == i || data[i * n + j] != 0.0)
                    .collect()
            })
            .collect();
        SensorGraph::from_neighbor_lists(n, &lists)
    }

    /// Keep each row's `k` strongest off-diagonal weights (ties broken
    /// toward the lower index, so selection is deterministic), plus
    /// self. Zero weights never qualify.
    pub fn top_k(weights: &Tensor, k: usize) -> Result<SensorGraph> {
        let shape = weights.shape();
        if shape.len() != 2 || shape[0] != shape[1] {
            return Err(TensorError::Invalid(format!(
                "SensorGraph::top_k: expected square [n, n], got {shape:?}"
            )));
        }
        let n = shape[0];
        let data = weights.data();
        let mut lists = Vec::with_capacity(n);
        for i in 0..n {
            let mut cands: Vec<usize> = (0..n)
                .filter(|&j| j != i && data[i * n + j] != 0.0)
                .collect();
            cands.sort_by(|&a, &b| {
                data[i * n + b]
                    .total_cmp(&data[i * n + a])
                    .then(a.cmp(&b))
            });
            cands.truncate(k);
            cands.push(i);
            cands.sort_unstable();
            lists.push(cands);
        }
        SensorGraph::from_neighbor_lists(n, &lists)
    }

    /// Number of sensors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of edges (attended pairs).
    pub fn nnz(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-degree of sensor `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Largest out-degree over all sensors.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|i| self.degree(i)).max().unwrap_or(0)
    }

    /// Sensor `i`'s neighbor list (ascending).
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Edge-index range of row `i` into the flat weights vector.
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }
}

/// Validate `[..., n, d]` operands against the graph and each other;
/// returns `(batch, n, d)` with leading dims flattened into `batch`.
fn check_operands(
    op: &'static str,
    q: &Tensor,
    k: &Tensor,
    h: &Tensor,
    graph: &SensorGraph,
) -> Result<(usize, usize, usize)> {
    if q.shape() != k.shape() || q.shape() != h.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: q.shape().to_vec(),
            rhs: if q.shape() != k.shape() {
                k.shape().to_vec()
            } else {
                h.shape().to_vec()
            },
        });
    }
    if q.rank() < 2 {
        return Err(TensorError::RankTooSmall {
            op,
            required: 2,
            actual: q.rank(),
        });
    }
    let n = q.shape()[q.rank() - 2];
    let d = q.shape()[q.rank() - 1];
    if n != graph.n() {
        return Err(TensorError::Invalid(format!(
            "{op}: graph over {} sensors applied to {} rows",
            graph.n(),
            n
        )));
    }
    let batch = q.len() / (n * d).max(1);
    Ok((batch, n, d))
}

/// Run `walk` over the `rows` rows of one call in groups whose
/// boundaries depend only on counts — never on the thread count — so
/// splitting is determinism-neutral: across the pool when the call is
/// big enough (`total_work` scalar ops) and the pool has threads,
/// inline otherwise.
fn for_row_groups(rows: usize, total_work: usize, walk: impl Fn(Range<usize>) + Sync) {
    let groups = if total_work >= PARALLEL_ELEMS && rows > 1 && stwa_pool::current_threads() > 1 {
        elementwise_chunks().min(rows)
    } else {
        1
    };
    if groups > 1 {
        let per = rows.div_ceil(groups);
        stwa_pool::parallel_for(groups, |g| walk(g * per..((g + 1) * per).min(rows)));
    } else {
        walk(0..rows);
    }
}

/// `Σ_c x[c]·y[c]`, ascending from `+0.0`, one fused multiply-add per
/// term — one element of the dense `matmul_nt`.
#[inline(always)]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&xv, &yv) in x.iter().zip(y) {
        acc = xv.mul_add(yv, acc);
    }
    acc
}

/// `out[t] = x · row(nbrs[t])` for every neighbour, four chains side by
/// side so the FMA latency is hidden; each chain is the one [`dot`]
/// runs alone, so the bits do not depend on the grouping.
#[inline(always)]
fn neighbour_dots(x: &[f32], src: &[f32], base: usize, d: usize, nbrs: &[u32], out: &mut [f32]) {
    let row = |j: u32| &src[base + j as usize * d..base + (j as usize + 1) * d];
    let mut quads = nbrs.chunks_exact(4);
    let mut slots = out.chunks_exact_mut(4);
    for (quad, slot) in (&mut quads).zip(&mut slots) {
        let (y0, y1, y2, y3) = (row(quad[0]), row(quad[1]), row(quad[2]), row(quad[3]));
        let mut acc = [0f32; 4];
        for ((((&xv, &a), &b), &c), &e) in x.iter().zip(y0).zip(y1).zip(y2).zip(y3) {
            acc[0] = xv.mul_add(a, acc[0]);
            acc[1] = xv.mul_add(b, acc[1]);
            acc[2] = xv.mul_add(c, acc[2]);
            acc[3] = xv.mul_add(e, acc[3]);
        }
        slot.copy_from_slice(&acc);
    }
    for (&j, slot) in quads.remainder().iter().zip(slots.into_remainder()) {
        *slot = dot(x, row(j));
    }
}

/// `out[c] = fma(a, x[c], out[c])` — one more term of every column's
/// chain.
#[inline(always)]
fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    for (o, &xv) in out.iter_mut().zip(x) {
        *o = a.mul_add(xv, *o);
    }
}

/// One call's operands as the row walks read them: `[batch·n, d]` rows
/// of `q`, `k`, `h` and (VJP only) `grad`, plus the `[batch, nnz]` edge
/// weights and score gradients (empty where a pass has none yet).
#[derive(Clone, Copy)]
struct Walk<'a> {
    graph: &'a SensorGraph,
    q: &'a [f32],
    k: &'a [f32],
    h: &'a [f32],
    grad: &'a [f32],
    weights: &'a [f32],
    ds: &'a [f32],
    d: usize,
    scale: f32,
}

/// The two buffers a row walk writes, each with its length in floats.
type Outs = [(SendPtr<f32>, usize); 2];

impl Walk<'_> {
    /// The slice lengths a walk over `rows` assumes: every row inside
    /// the `[batch·n, d]` operands, and `outs` holding the edge slots
    /// (`[batch, nnz]`) or `d`-wide rows `pass` writes for those rows.
    fn debug_check(&self, pass: Pass, rows: &Range<usize>, outs: &Outs) {
        let (n, nnz, d) = (self.graph.n(), self.graph.nnz(), self.d);
        let (edge_len, row_len) = (rows.end.div_ceil(n) * nnz, rows.end * d);
        // A row reads its own sample's neighbour rows.
        let sample_len = rows.end.div_ceil(n) * n * d;
        debug_assert!(self.q.len() >= row_len, "sparse: operand rows");
        debug_assert!(
            self.k.len() >= sample_len && self.h.len() >= sample_len,
            "sparse: neighbour rows"
        );
        debug_assert!(
            self.grad.is_empty() || self.grad.len() >= sample_len,
            "sparse: gradient rows"
        );
        let want = match pass {
            Pass::Forward | Pass::RowGrads => [edge_len, row_len],
            Pass::ColGrads => [row_len, row_len],
        };
        debug_assert!(outs[0].1 >= want[0] && outs[1].1 >= want[1], "sparse: output length");
    }
}

/// Which row walk to run; each names the two buffers it writes.
#[derive(Clone, Copy)]
enum Pass {
    /// Scores, row softmax and mix: `[weights, out]`.
    Forward,
    /// Score gradients through the softmax, then `dq`: `[ds, dq]`.
    RowGrads,
    /// `dk` and `dh` gathered over each sensor's incoming edges:
    /// `[dk, dh]`.
    ColGrads,
}

/// Rows `rows` of `pass` on the dispatched arm: the FMA instantiation
/// from [`Isa::Avx2`] up, the portable body (libm `fmaf`) below.
///
/// # Safety
///
/// `outs` point at buffers of the lengths they carry, at least the sizes
/// `pass` writes (`[batch, nnz]` for edge slots, `[batch·n, d]` for
/// rows), and no other thread touches the slots of these rows.
unsafe fn walk_rows(pass: Pass, cx: &Walk, rows: Range<usize>, outs: Outs) {
    cx.debug_check(pass, &rows, &outs);
    // Safety: forwarded contract; the arms are guarded by the tier.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        {
            let isa = isa::current();
            if matches!(pass, Pass::Forward) && cx.d == 32 && isa >= Isa::Avx512 {
                return forward_lanes(cx, rows, outs);
            }
            if isa >= Isa::Avx2 {
                return walk_rows_avx2(pass, cx, rows, outs);
            }
        }
        walk_rows_body(pass, cx, rows, outs)
    }
}

/// [`forward_row`] at `d = 32` for sixteen rows at a time, one row per
/// lane: the queries and, for edge slot `t`, each row's `t`-th
/// neighbour's key are transposed in registers (two sixteen-column
/// transposes per row), so a slot's sixteen scores are one chain of
/// `vfmadd` over `c` ascending from `+0.0`, then the scale; the softmax
/// runs down the slots — the max fold from `-inf`, one `exp_v16` per
/// slot (bitwise `exp_f32`), the ascending sum and the divide — with
/// each lane's slots past its degree masked out of the max and the sum.
/// The mix stays row-major: each row's output is two zmm of chains over
/// its neighbours ascending. Every element is [`forward_row`]'s chain,
/// hence the same bits.
///
/// # Safety
///
/// As [`walk_rows`] for [`Pass::Forward`]; the CPU must support
/// AVX-512F and `cx.d` must be 32.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn forward_lanes(cx: &Walk, rows: Range<usize>, [(wp, w_len), (op, o_len)]: Outs) {
    use crate::attention::columns;
    use std::arch::x86_64::*;
    const D: usize = 32;
    cx.debug_check(Pass::Forward, &rows, &[(wp, w_len), (op, o_len)]);
    let Walk {
        graph, q, k, h, d, ..
    } = *cx;
    debug_assert_eq!(d, D, "sparse forward_lanes: two zmm per row");
    let (n, nnz) = (graph.n(), graph.nnz());
    let zero = _mm512_setzero_ps();
    let scale = _mm512_set1_ps(cx.scale);
    let (mut scores, mut slots) = (Vec::new(), Vec::<[f32; 16]>::new());
    // Safety (whole body): every row read lies inside the `[batch·n, d]`
    // operands, every edge slot and output row written inside the
    // buffers `outs` carries, and they belong to this walk alone.
    unsafe {
        for g0 in rows.clone().step_by(16) {
            let live = (rows.end - g0).min(16);
            // Lane `r` holds row `g0 + r`; lanes past the walk's end
            // repeat its last row and are never stored.
            let lane: [(usize, usize, usize); 16] = std::array::from_fn(|r| {
                let row = g0 + r.min(live - 1);
                let (bi, i) = (row / n, row % n);
                (row, bi * n * D, i)
            });
            let nbrs = |r: usize| graph.neighbors_of(lane[r].2);
            let deg: [usize; 16] =
                std::array::from_fn(|r| if r < live { nbrs(r).len() } else { 0 });
            let degree = deg.iter().copied().max().unwrap_or(0);
            // The lanes whose rows have an edge in slot `t`.
            let valid = |t: usize| -> __mmask16 {
                deg.iter()
                    .enumerate()
                    .filter(|&(_, &dr)| dr > t)
                    .fold(0, |m, (r, _)| m | 1 << r)
            };
            if degree > 0 {
                // Columns `0..16` and `16..32` of each lane's row.
                let qrow = |r: usize| lane[r].0 * D;
                let qc = [columns(q, qrow), columns(q, |r| qrow(r) + 16)];
                let mut m = _mm512_set1_ps(f32::NEG_INFINITY);
                scores.clear();
                for t in 0..degree {
                    // Each lane's `t`-th neighbour's key row; a lane past
                    // its degree scores its own.
                    let key: [usize; 16] = std::array::from_fn(|r| {
                        let (_, base, i) = lane[r];
                        base + nbrs(r).get(t).map_or(i, |&j| j as usize) * D
                    });
                    let kc = [columns(k, |r| key[r]), columns(k, |r| key[r] + 16)];
                    let mut acc = zero;
                    for c in 0..D {
                        acc = _mm512_fmadd_ps(qc[c / 16][c % 16], kc[c / 16][c % 16], acc);
                    }
                    let sv = _mm512_mul_ps(acc, scale);
                    // `f32::max(m, x)`: a NaN score leaves the max alone.
                    m = _mm512_mask_max_ps(m, valid(t), sv, m);
                    scores.push(sv);
                }
                let mut z = zero;
                for (t, sv) in scores.iter_mut().enumerate() {
                    *sv = crate::mathfn::wide::exp_v16(_mm512_sub_ps(*sv, m));
                    z = _mm512_mask_add_ps(z, valid(t), z, *sv);
                }
                slots.resize(degree, [0.0; 16]);
                for (slot, &e) in slots.iter_mut().zip(&scores) {
                    _mm512_storeu_ps(slot.as_mut_ptr(), _mm512_div_ps(e, z));
                }
            }
            for (r, &(row, base, i)) in lane.iter().enumerate().take(live) {
                debug_assert!((row + 1) * D <= o_len, "sparse: output row");
                let out = op.get().add(row * D);
                let nbrs = nbrs(r);
                if nbrs.is_empty() {
                    if graph.identity_passthrough {
                        std::ptr::copy_nonoverlapping(h.as_ptr().add(base + i * D), out, D);
                    } else {
                        out.write_bytes(0, D);
                    }
                    continue;
                }
                let at = (row / n) * nnz + graph.row_range(i).start;
                debug_assert!(at + nbrs.len() <= w_len, "sparse: edge slots");
                let mut acc = [zero; 2];
                for (t, &j) in nbrs.iter().enumerate() {
                    let wv = slots[t][r];
                    *wp.get().add(at + t) = wv;
                    let hj = h.as_ptr().add(base + j as usize * D);
                    for (z, a) in acc.iter_mut().enumerate() {
                        *a = _mm512_fmadd_ps(
                            _mm512_set1_ps(wv),
                            _mm512_loadu_ps(hj.add(16 * z)),
                            *a,
                        );
                    }
                }
                for (z, &a) in acc.iter().enumerate() {
                    _mm512_storeu_ps(out.add(16 * z), a);
                }
            }
        }
    }
}

/// [`walk_rows_body`] compiled with AVX2 and FMA.
///
/// # Safety
///
/// As [`walk_rows`], and the CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn walk_rows_avx2(pass: Pass, cx: &Walk, rows: Range<usize>, outs: Outs) {
    cx.debug_check(pass, &rows, &outs);
    // Safety: forwarded contract.
    unsafe { walk_rows_body(pass, cx, rows, outs) }
}

/// # Safety
///
/// As [`walk_rows`].
#[inline(always)]
unsafe fn walk_rows_body(pass: Pass, cx: &Walk, rows: Range<usize>, outs: Outs) {
    cx.debug_check(pass, &rows, &outs);
    let [(a, _), (b, _)] = outs;
    let Walk { graph, d, .. } = *cx;
    let (n, nnz) = (graph.n(), graph.nnz());
    for r in rows {
        let (bi, i) = (r / n, r % n);
        let er = graph.row_range(i);
        // Safety: row `r`'s edge slots and `d`-wide rows lie inside the
        // buffers and belong to this walk alone (the caller's contract).
        unsafe {
            let edges =
                || std::slice::from_raw_parts_mut(a.get().add(bi * nnz + er.start), er.len());
            let row = |p: SendPtr<f32>| std::slice::from_raw_parts_mut(p.get().add(r * d), d);
            match pass {
                Pass::Forward => forward_row(cx, bi, i, edges(), row(b)),
                Pass::RowGrads => row_grads(cx, bi, i, edges(), row(b)),
                Pass::ColGrads => col_grads(cx, bi, i, row(a), row(b)),
            }
        }
    }
}

/// Sensor `i` of sample `bi`: its edge weights and output row.
#[inline(always)]
fn forward_row(cx: &Walk, bi: usize, i: usize, w_row: &mut [f32], out_row: &mut [f32]) {
    let Walk {
        graph,
        q,
        k,
        h,
        d,
        scale,
        ..
    } = *cx;
    let base = bi * graph.n() * d;
    let nbrs = graph.neighbors_of(i);
    if nbrs.is_empty() {
        if graph.identity_passthrough {
            out_row.copy_from_slice(&h[base + i * d..base + (i + 1) * d]);
        } else {
            out_row.fill(0.0);
        }
        return;
    }
    // Scores: ascending-d FMA chains (the GEMM order contract), scaled
    // per element like the dense `mul_scalar`.
    neighbour_dots(
        &q[base + i * d..base + (i + 1) * d],
        k,
        base,
        d,
        nbrs,
        w_row,
    );
    for x in w_row.iter_mut() {
        *x *= scale;
    }
    // Row softmax: the exact `softmax_lastdim` chain.
    let mut m = f32::NEG_INFINITY;
    for &x in w_row.iter() {
        m = m.max(x);
    }
    crate::mathfn::exp_sub_slice(w_row, m);
    let mut z = 0.0f32;
    for &x in w_row.iter() {
        z += x;
    }
    for x in w_row.iter_mut() {
        *x /= z;
    }
    // Mix: neighbors ascending — the dense `weights @ h` contraction
    // order per output element.
    out_row.fill(0.0);
    for (&wv, &j) in w_row.iter().zip(nbrs) {
        axpy(
            out_row,
            wv,
            &h[base + j as usize * d..base + (j as usize + 1) * d],
        );
    }
}

/// Sensor `i` of sample `bi`: its score gradients and `dq` row.
#[inline(always)]
fn row_grads(cx: &Walk, bi: usize, i: usize, ds_row: &mut [f32], dq_row: &mut [f32]) {
    let Walk {
        graph,
        k,
        h,
        grad,
        weights,
        d,
        scale,
        ..
    } = *cx;
    let base = bi * graph.n() * d;
    let nbrs = graph.neighbors_of(i);
    let w_row = &weights[bi * graph.nnz() + graph.row_range(i).start..][..nbrs.len()];
    if nbrs.is_empty() {
        dq_row.fill(0.0);
        return;
    }
    // dw_e = g_i · h_j, ascending d.
    neighbour_dots(
        &grad[base + i * d..base + (i + 1) * d],
        h,
        base,
        d,
        nbrs,
        ds_row,
    );
    // Softmax VJP: s = Σ dw·w ascending (the chain's `mul` + `sum_axis`,
    // so unfused), ds = w (dw − s), then the `mul_scalar` VJP folds the
    // scale back in.
    let mut s = 0.0f32;
    for (dw, w) in ds_row.iter().zip(w_row) {
        s += dw * w;
    }
    for (dsv, w) in ds_row.iter_mut().zip(w_row) {
        *dsv = w * (*dsv - s) * scale;
    }
    // dq_i = Σ_j ds_e · k_j, neighbors ascending.
    dq_row.fill(0.0);
    for (&c, &j) in ds_row.iter().zip(nbrs) {
        axpy(
            dq_row,
            c,
            &k[base + j as usize * d..base + (j as usize + 1) * d],
        );
    }
}

/// Sensor `j` of sample `bi`: its `dk` and `dh` rows, gathered over the
/// incoming edges with sources ascending — `matmul_tn`'s contraction
/// order — so the scatter needs no atomics and no thread-count-dependent
/// reassociation.
#[inline(always)]
fn col_grads(cx: &Walk, bi: usize, j: usize, dk_row: &mut [f32], dh_row: &mut [f32]) {
    let Walk {
        graph,
        q,
        grad,
        weights,
        ds,
        d,
        ..
    } = *cx;
    let (base, nnz) = (bi * graph.n() * d, graph.nnz());
    dk_row.fill(0.0);
    // An isolated sensor's forward was `out_j = h_j` under the
    // passthrough, so its summary gradient starts at `g_j` before any
    // incoming-edge contributions accumulate.
    if graph.identity_passthrough && graph.degree(j) == 0 {
        dh_row.copy_from_slice(&grad[base + j * d..base + (j + 1) * d]);
    } else {
        dh_row.fill(0.0);
    }
    for t in graph.t_offsets[j]..graph.t_offsets[j + 1] {
        let i = graph.t_src[t] as usize;
        let e = bi * nnz + graph.t_edge[t] as usize;
        axpy(dk_row, ds[e], &q[base + i * d..base + (i + 1) * d]);
        axpy(dh_row, weights[e], &grad[base + i * d..base + (i + 1) * d]);
    }
}

/// Sparse attention forward: `out_i = Σ_{j ∈ nbr(i)} softmax_j(q_i·k_j / √d)·h_j`.
///
/// `scale` is applied to every score before the row softmax, exactly
/// where the dense chain's `mul_scalar` sits. Returns the mixed output
/// `[..., n, d]` and the per-edge softmax weights `[batch, nnz]` (the
/// backward pass's saved activation).
pub fn sparse_attention_forward(
    q: &Tensor,
    k: &Tensor,
    h: &Tensor,
    graph: &SensorGraph,
    scale: f32,
) -> Result<(Tensor, Tensor)> {
    let (batch, n, d) = check_operands("sparse_attention", q, k, h, graph)?;
    let nnz = graph.nnz();
    let mut weights = memory::take_scratch(batch * nnz);
    let mut out = memory::take_scratch(batch * n * d);
    let cx = Walk {
        graph,
        q: q.data(),
        k: k.data(),
        h: h.data(),
        grad: &[],
        weights: &[],
        ds: &[],
        d,
        scale,
    };
    let outs = [
        (SendPtr(weights.as_mut_ptr()), weights.len()),
        (SendPtr(out.as_mut_ptr()), out.len()),
    ];
    // Safety: `weights` is `[batch, nnz]`, `out` `[batch·n, d]`; groups
    // own disjoint rows and the pool joins before the buffers are read.
    for_row_groups(batch * n, batch * nnz * d, |rows| unsafe {
        walk_rows(Pass::Forward, &cx, rows, outs)
    });
    let out_t = Tensor::from_vec(out, q.shape())?;
    let w_t = Tensor::from_vec(weights, &[batch, nnz])?;
    Ok((out_t, w_t))
}

/// Exact VJP of [`sparse_attention_forward`].
///
/// Returns `(dq, dk, dh)`. Each gradient replicates the dense backward
/// chain bit for bit on complete graphs:
///
/// - per-edge `dw_e = g_i · h_j` (ascending d — `matmul_nt(g, h)`),
/// - row softmax VJP `ds_e = w_e (dw_e − Σ w·dw)` with the ascending
///   row sum (`softmax_vjp_lastdim`), then `ds_e *= scale`
///   (`mul_scalar`'s VJP),
/// - `dq_i = Σ_j ds_e k_j` ascending j (`matmul(ds, k)`),
/// - `dk_j = Σ_i ds_e q_i` and `dh_j = Σ_i w_e g_i` ascending i via the
///   transpose index (`matmul_tn`'s contraction order).
pub fn sparse_attention_vjp(
    grad: &Tensor,
    q: &Tensor,
    k: &Tensor,
    h: &Tensor,
    weights: &Tensor,
    graph: &SensorGraph,
    scale: f32,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (batch, n, d) = check_operands("sparse_attention_vjp", q, k, h, graph)?;
    if grad.shape() != q.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "sparse_attention_vjp",
            lhs: grad.shape().to_vec(),
            rhs: q.shape().to_vec(),
        });
    }
    let nnz = graph.nnz();
    if weights.len() != batch * nnz {
        return Err(TensorError::Invalid(format!(
            "sparse_attention_vjp: weights hold {} values, expected {}",
            weights.len(),
            batch * nnz
        )));
    }
    let (rows, work) = (batch * n, batch * nnz * d);
    let mut cx = Walk {
        graph,
        q: q.data(),
        k: k.data(),
        h: h.data(),
        grad: grad.data(),
        weights: weights.data(),
        ds: &[],
        d,
        scale,
    };

    // Pass 1 (over i): per-edge score gradients through the softmax,
    // built directly into `ds`, and `dq`.
    let mut ds = memory::take_scratch(batch * nnz);
    let mut dq = memory::take_scratch(batch * n * d);
    let outs = [
        (SendPtr(ds.as_mut_ptr()), ds.len()),
        (SendPtr(dq.as_mut_ptr()), dq.len()),
    ];
    // Safety: `ds` is `[batch, nnz]`, `dq` `[batch·n, d]`; disjoint
    // rows per group, joined before either is read.
    for_row_groups(rows, work, |r| unsafe {
        walk_rows(Pass::RowGrads, &cx, r, outs)
    });

    // Pass 2 (over j via the transpose): `dk` and `dh`.
    cx.ds = &ds;
    let mut dk = memory::take_scratch(batch * n * d);
    let mut dh = memory::take_scratch(batch * n * d);
    let outs = [
        (SendPtr(dk.as_mut_ptr()), dk.len()),
        (SendPtr(dh.as_mut_ptr()), dh.len()),
    ];
    // Safety: both `[batch·n, d]`; disjoint rows per group, joined
    // before either is read.
    for_row_groups(rows, work, |r| unsafe {
        walk_rows(Pass::ColGrads, &cx, r, outs)
    });
    memory::recycle(ds);
    Ok((
        Tensor::from_vec(dq, q.shape())?,
        Tensor::from_vec(dk, q.shape())?,
        Tensor::from_vec(dh, q.shape())?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_chain(q: &Tensor, k: &Tensor, h: &Tensor, scale: f32) -> Tensor {
        let scores = linalg::matmul_nt(q, k).unwrap().mul_scalar(scale);
        let w = scores.softmax(scores.rank() - 1).unwrap();
        linalg::matmul(&w, h).unwrap()
    }

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn complete_graph_matches_dense_bitwise() {
        for n in [1usize, 2, 3, 7, 13] {
            let d = 5;
            let g = SensorGraph::complete(n);
            let q = rand_t(&[2, n, d], 1);
            let k = rand_t(&[2, n, d], 2);
            let h = rand_t(&[2, n, d], 3);
            let scale = 1.0 / (d as f32).sqrt();
            let (sparse, _) = sparse_attention_forward(&q, &k, &h, &g, scale).unwrap();
            let dense = dense_chain(&q, &k, &h, scale);
            let a: Vec<u32> = sparse.data().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = dense.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn complete_graph_vjp_matches_dense_bitwise() {
        let (n, d) = (6usize, 4);
        let g = SensorGraph::complete(n);
        let q = rand_t(&[1, n, d], 11);
        let k = rand_t(&[1, n, d], 12);
        let h = rand_t(&[1, n, d], 13);
        let grad = rand_t(&[1, n, d], 14);
        let scale = 1.0 / (d as f32).sqrt();
        let (_, w) = sparse_attention_forward(&q, &k, &h, &g, scale).unwrap();
        let (dq, dk, dh) = sparse_attention_vjp(&grad, &q, &k, &h, &w, &g, scale).unwrap();

        // Dense reference: the exact op-by-op chain the tape runs.
        let scores = linalg::matmul_nt(&q, &k).unwrap().mul_scalar(scale);
        let wt = scores.softmax(scores.rank() - 1).unwrap();
        let dwt = linalg::matmul_nt(&grad, &h).unwrap();
        let dh_ref = linalg::matmul_tn(&wt, &grad).unwrap();
        let ds = wt.softmax_vjp_lastdim(&dwt).unwrap().mul_scalar(scale);
        let dq_ref = linalg::matmul(&ds, &k).unwrap();
        let dk_ref = linalg::matmul_tn(&ds, &q).unwrap();

        for (name, got, want) in [
            ("dq", &dq, &dq_ref),
            ("dk", &dk, &dk_ref),
            ("dh", &dh, &dh_ref),
        ] {
            let a: Vec<u32> = got.data().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = want.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn every_isa_arm_matches_dense_bitwise() {
        // Degree 13 runs three four-neighbour score groups and a
        // single-chain tail per row; the dense oracle takes the
        // dispatched arm too.
        crate::isa::for_each_ceiling("sparse attention walks", |_| {
            complete_graph_matches_dense_bitwise();
            complete_graph_vjp_matches_dense_bitwise();
        });
    }

    #[test]
    fn serving_width_lanes_match_the_portable_arm_bitwise() {
        // `d = 32` over 37 sensors and two samples (74 rows: four lane
        // groups, the last ragged, one straddling the samples), with a
        // degree-0 row, rows of degree 1..7, and one row of degree 20 —
        // past a zmm of edges, the graph's maximum — with and without
        // identity passthrough, on every arm the host has, against the
        // portable one. The NaN key of sensor 5 must poison exactly the
        // rows that attend it, on every arm alike.
        let (n, d) = (37usize, 32usize);
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|i| match i {
                3 => vec![],
                11 => (5..25).collect(),
                _ => {
                    let mut row: Vec<usize> = (0..=i % 7).map(|t| (i + 5 * t) % n).collect();
                    row.sort_unstable();
                    row.dedup();
                    row
                }
            })
            .collect();
        let graph = SensorGraph::from_neighbor_lists(n, &lists).unwrap();
        assert_eq!(graph.max_degree(), 20);
        let q = rand_t(&[2, n, d], 71).mul_scalar(2.0);
        let mut k = rand_t(&[2, n, d], 72);
        k.data_mut()[5 * d + 7] = f32::NAN;
        let h = rand_t(&[2, n, d], 73);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for g in [graph.clone(), graph.with_identity_passthrough()] {
            let run = || {
                let (out, w) = sparse_attention_forward(&q, &k, &h, &g, 0.25).unwrap();
                (bits(&out), bits(&w))
            };
            let want = isa::with_ceiling(Isa::Scalar, run);
            isa::for_each_ceiling("sparse forward at d = 32", |cap| {
                assert!(
                    run() == want,
                    "{cap:?} passthrough={}",
                    g.identity_passthrough()
                );
            });
        }
    }

    #[test]
    fn sparse_rows_are_masked_softmax() {
        // 4 sensors in a line (self + immediate neighbors): weights over
        // excluded pairs must be exactly zero influence, and each row's
        // kept weights must match a masked dense softmax.
        let n = 4;
        let d = 3;
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| (j as isize - i as isize).abs() <= 1)
                    .collect()
            })
            .collect();
        let g = SensorGraph::from_neighbor_lists(n, &lists).unwrap();
        let q = rand_t(&[1, n, d], 21);
        let k = rand_t(&[1, n, d], 22);
        let h = rand_t(&[1, n, d], 23);
        let (out, w) = sparse_attention_forward(&q, &k, &h, &g, 0.5).unwrap();
        // Per-row weights sum to 1 and the output is a convex mix of
        // neighbor rows only.
        for i in 0..n {
            let r = g.row_range(i);
            let sum: f32 = w.data()[r].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(out.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_row_yields_zero_not_nan() {
        let n = 3;
        let d = 2;
        let lists = vec![vec![0usize, 1], vec![], vec![2]];
        let g = SensorGraph::from_neighbor_lists(n, &lists).unwrap();
        let q = rand_t(&[1, n, d], 31);
        let k = rand_t(&[1, n, d], 32);
        let h = rand_t(&[1, n, d], 33);
        let (out, w) = sparse_attention_forward(&q, &k, &h, &g, 1.0).unwrap();
        assert!(out.data().iter().all(|x| x.is_finite()));
        assert_eq!(out.at(&[0, 1, 0]), 0.0);
        assert_eq!(out.at(&[0, 1, 1]), 0.0);
        let grad = rand_t(&[1, n, d], 34);
        let (dq, dk, dh) = sparse_attention_vjp(&grad, &q, &k, &h, &w, &g, 1.0).unwrap();
        for t in [&dq, &dk, &dh] {
            assert!(t.data().iter().all(|x| x.is_finite()));
        }
        // The isolated sensor receives no score gradient...
        assert_eq!(dq.at(&[0, 1, 0]), 0.0);
        // ...and nothing flows into sensors only it would have attended.
        assert!(dh.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn identity_passthrough_serves_isolated_sensors() {
        // Sensor 1 has no outgoing *or* incoming edges, and no sensor
        // here lists itself — the passthrough must not invent self-loops
        // for connected rows, only rescue the truly isolated one.
        let n = 3;
        let d = 4;
        let lists = vec![vec![0usize], vec![], vec![2]];
        let g_off = SensorGraph::from_neighbor_lists(n, &lists).unwrap();
        let g_on = g_off.clone().with_identity_passthrough();
        assert!(!g_off.identity_passthrough());
        assert!(g_on.identity_passthrough());
        let q = rand_t(&[2, n, d], 51);
        let k = rand_t(&[2, n, d], 52);
        let h = rand_t(&[2, n, d], 53);
        let (out_off, w_off) = sparse_attention_forward(&q, &k, &h, &g_off, 0.5).unwrap();
        let (out_on, w_on) = sparse_attention_forward(&q, &k, &h, &g_on, 0.5).unwrap();
        assert_eq!(w_off.data(), w_on.data(), "edge weights must not change");
        for bi in 0..2 {
            for c in 0..d {
                // The isolated row forwards its own summary bitwise...
                assert_eq!(out_off.at(&[bi, 1, c]), 0.0);
                assert_eq!(
                    out_on.at(&[bi, 1, c]).to_bits(),
                    h.at(&[bi, 1, c]).to_bits()
                );
                // ...and connected rows are untouched by the opt-in.
                for i in [0usize, 2] {
                    assert_eq!(
                        out_on.at(&[bi, i, c]).to_bits(),
                        out_off.at(&[bi, i, c]).to_bits()
                    );
                }
            }
        }
        let grad = rand_t(&[2, n, d], 54);
        let (dq_on, dk_on, dh_on) =
            sparse_attention_vjp(&grad, &q, &k, &h, &w_on, &g_on, 0.5).unwrap();
        let (dq_off, dk_off, dh_off) =
            sparse_attention_vjp(&grad, &q, &k, &h, &w_off, &g_off, 0.5).unwrap();
        // The identity has no q/k dependence.
        assert_eq!(dq_on.data(), dq_off.data());
        assert_eq!(dk_on.data(), dk_off.data());
        for bi in 0..2 {
            for c in 0..d {
                // g_1 flows straight back into dh_1 (was dropped before)...
                assert_eq!(dh_off.at(&[bi, 1, c]), 0.0);
                assert_eq!(
                    dh_on.at(&[bi, 1, c]).to_bits(),
                    grad.at(&[bi, 1, c]).to_bits()
                );
                // ...while connected rows keep their exact gradients.
                for j in [0usize, 2] {
                    assert_eq!(
                        dh_on.at(&[bi, j, c]).to_bits(),
                        dh_off.at(&[bi, j, c]).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_index_is_consistent() {
        let lists = vec![vec![1usize, 2], vec![0], vec![0, 2]];
        let g = SensorGraph::from_neighbor_lists(3, &lists).unwrap();
        assert_eq!(g.nnz(), 5);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        // Incoming edges of sensor 0: from rows 1 and 2, ascending.
        let r = g.t_offsets[0]..g.t_offsets[1];
        let srcs: Vec<u32> = g.t_src[r.clone()].to_vec();
        assert_eq!(srcs, vec![1, 2]);
        for t in r {
            let e = g.t_edge[t] as usize;
            assert_eq!(g.neighbors[e], 0);
        }
    }

    #[test]
    fn invalid_lists_rejected() {
        assert!(SensorGraph::from_neighbor_lists(2, &[vec![0, 0], vec![]]).is_err());
        assert!(SensorGraph::from_neighbor_lists(2, &[vec![1, 0], vec![]]).is_err());
        assert!(SensorGraph::from_neighbor_lists(2, &[vec![2], vec![]]).is_err());
        assert!(SensorGraph::from_neighbor_lists(2, &[vec![]]).is_err());
    }

    #[test]
    fn from_adjacency_includes_self() {
        let adj = Tensor::from_fn(&[3, 3], |i| {
            if i[0].abs_diff(i[1]) == 1 {
                1.0
            } else {
                0.0
            }
        });
        let g = SensorGraph::from_adjacency(&adj).unwrap();
        assert_eq!(g.neighbors_of(0), &[0, 1]);
        assert_eq!(g.neighbors_of(1), &[0, 1, 2]);
    }

    #[test]
    fn top_k_keeps_strongest_and_self() {
        let w = Tensor::from_fn(&[3, 3], |i| ((i[0] * 3 + i[1]) as f32) * 0.1);
        let g = SensorGraph::top_k(&w, 1).unwrap();
        // Row 0: strongest off-diagonal is j=2 (0.2), plus self.
        assert_eq!(g.neighbors_of(0), &[0, 2]);
        assert_eq!(g.neighbors_of(1), &[1, 2]);
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let (n, d) = (64usize, 8);
        let g = SensorGraph::complete(n);
        let q = rand_t(&[4, n, d], 41);
        let k = rand_t(&[4, n, d], 42);
        let h = rand_t(&[4, n, d], 43);
        let grad = rand_t(&[4, n, d], 44);
        let run = || {
            let (out, w) = sparse_attention_forward(&q, &k, &h, &g, 0.25).unwrap();
            let (dq, dk, dh) = sparse_attention_vjp(&grad, &q, &k, &h, &w, &g, 0.25).unwrap();
            let mut bits: Vec<u32> = Vec::new();
            for t in [&out, &dq, &dk, &dh] {
                bits.extend(t.data().iter().map(|x| x.to_bits()));
            }
            bits
        };
        let before = stwa_pool::current_threads();
        stwa_pool::set_threads(1);
        let solo = run();
        stwa_pool::set_threads(4);
        let pooled = run();
        stwa_pool::set_threads(before);
        assert_eq!(solo, pooled);
    }
}
