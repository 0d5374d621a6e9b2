//! Batched matrix multiplication.
//!
//! This is the hot kernel of the whole reproduction: every attention
//! score, projection, and dense layer bottoms out here. Training,
//! evaluation and the frozen inference engine call the same entries —
//! there is one path per product, instrumented (a span and counters
//! that cost a relaxed load each while recording is off) and the same
//! for every caller. Three entry points share one engine:
//!
//! - [`matmul`]: `[..., m, k] @ [..., k, n]`,
//! - [`matmul_nt`]: `[..., m, k] @ [..., n, k]ᵀ` — attention scores
//!   (`Q·Kᵀ`) and the `dA = G·Bᵀ` VJP without materializing a
//!   transposed copy,
//! - [`matmul_tn`]: `[..., k, m]ᵀ @ [..., k, n]` — the `dB = Aᵀ·G` VJP.
//!
//! Every product runs on register tiles: `R` output rows by `W`
//! columns of accumulators held in locals, A read **in place** through
//! a `(row, contraction)` stride pair (so `A` and `Aᵀ` differ only in
//! the strides), B read as rows of `NR`-wide column groups. Large
//! products feed the tiles from packed B panels — slabs of at most
//! `KC` contraction steps, each cut into `NR`-wide strips exactly as
//! deep as the slab (transposed on the fly for `Bᵀ`); small ones — the
//! per-(sample, sensor) products the model issues by the thousand —
//! read B in place too and pack nothing, as do thin `Aᵀ·B` weight
//! gradients (under 64 output rows) at any size. The cutover is a
//! function of the product's shape alone. Trailing batch axes the right
//! operand does not vary over are folded into the rows of the left one
//! before either path sees the product (`Plan::build`), and
//! [`matmul_tn_sum_lead`] is the matching weight gradient with its
//! leading-axis reduction fused in.
//!
//! The packed walk (`panel_pass`) goes row block → strip pair → row
//! band: a block of `ROW_BLOCK` A rows stays L2-resident while the
//! panel's strips stream past two at a time (`2·kc·NR` floats, at most
//! 32 KiB, L1-resident for the whole block), and each band of the block
//! runs one register tile across the pair. An odd last full strip runs
//! on its own, a ragged final strip goes through a stack tile so padded
//! lanes never reach C, and the in-place small path walks the same
//! column groups over B where it lies. Tile shapes per ISA arm, chosen
//! from the row and strip counts only:
//!
//! - AVX-512: `8×32`, then `4×32`, then `1×32` for leftover rows, and
//!   the same heights at `×16` for a single strip;
//! - AVX2: `4×16` (eight ymm accumulators, what a 16-register file
//!   holds beside the B row and the broadcast), then `1×16`, strip by
//!   strip of the pair;
//! - portable: the same `4×16` / `1×16` shapes.
//!
//! Every accumulator is one `vfmadd` chain. A chain retires one term
//! per FMA latency (4 cycles) and the two FMA ports each take one
//! instruction per cycle, so eight independent accumulators saturate
//! the unit: the `8×32` tile's sixteen zmm (plus two B rows and a
//! broadcast, of 32 registers) is port-bound at 2 FMA/cycle, and the
//! AVX2 `4×16` tile's eight ymm just reach it.
//!
//! The order contract: each output element is one f32 chain that
//! starts at `+0.0` and takes its `k` terms in strictly ascending
//! contraction order, each term **one fused multiply-add with a single
//! rounding** (`acc = fma(a, b, acc)`). Tiling, packing, folding, the
//! ISA arm and the thread count only change *which* elements are in
//! flight together, never an element's chain, so every path — and
//! [`matmul_reference`], the plain i-k-j loop kept for tests and
//! benchmarks — is **bitwise identical** and they may be mixed freely
//! (the golden-run regression test depends on this). The explicit
//! AVX-512 tile calls `_mm512_fmadd_ps`; every other kernel spells the
//! term `f32::mul_add` in an `#[inline(always)]` body that runs through
//! an `avx2,fma` instantiation whenever [`crate::isa::current`] is at
//! least [`Isa::Avx2`] (so it compiles to `vfmadd`), and as plain code —
//! a correctly rounded libm `fmaf` — only on the scalar tier. Outputs
//! are *written*, not accumulated into: the first panel pass starts its
//! accumulators at zero in registers, so output buffers come from
//! [`crate::memory::take_scratch`] unfilled.
//!
//! Parallelism comes from the persistent [`stwa_pool`] pool, never from
//! per-call thread spawning. Products above [`PARALLEL_FLOP_THRESHOLD`]
//! split across the batch axis when the batch is wide enough, and
//! otherwise across row blocks of each matrix, so a single large
//! `batch == 1` product (the predictor MLP over `B·N` flattened rows,
//! the generator decoder) still uses every core. Tasks own disjoint
//! output rows and each row's summation order is fixed, so results do
//! not depend on the thread count. A product the split leaves whole is
//! one task, which the pool runs inline on the caller. The register
//! tiles' ISA arm comes from [`crate::isa`], the workspace's one CPU
//! probe.

use crate::isa::{self, Isa};
use crate::shape::{broadcast_shapes, broadcast_strides, volume};
use crate::{Result, Tensor, TensorError};
use stwa_pool::SendPtr;

/// Problems smaller than this many fused multiply-adds stay
/// single-threaded; pool dispatch overhead dominates below it.
pub(crate) const PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;

/// Per-matrix FLOP count below which reading B in place beats packing
/// it into panels (packing costs more than it saves).
const BLOCKED_MIN_FLOPS: usize = 1 << 15;

/// Same cutover for `A·Bᵀ` products. The small NT kernel is a scalar
/// fused-multiply-add chain per output — the order contract forbids
/// vectorizing a reduction — so packing B into strips (which restores
/// the vectorizable rank-1 layout) wins at much smaller sizes than for
/// NN.
const BLOCKED_MIN_FLOPS_NT: usize = 1 << 12;

/// `Aᵀ·B` products with fewer output rows than this read B in place at
/// any size (see `Gemm::new`).
const THIN_TN_ROWS: usize = 64;

/// Register-tile rows (distinct A rows live per full tile).
pub(crate) const MR: usize = 4;
/// Register-tile columns (one packed B strip; one AVX-512 vector wide).
pub(crate) const NR: usize = 16;
/// Deepest contraction slab one packed panel pass takes. A slab of
/// `kc = min(KC, k - k0)` steps is packed `kc` deep — strips of
/// `kc · NR` floats, at most 16 KiB, so a strip pair stays L1-resident —
/// and a shallow product's panel is no bigger than its B.
pub(crate) const KC: usize = 256;

/// How the left operand's trailing two axes are laid out.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AKind {
    /// `[..., m, k]` row-major.
    Normal,
    /// `[..., k, m]` row-major, multiplied as `Aᵀ`.
    Transposed,
}

/// How the right operand's trailing two axes are laid out.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BKind {
    /// `[..., k, n]` row-major.
    Normal,
    /// `[..., n, k]` row-major, multiplied as `Bᵀ`.
    Transposed,
}

/// Batched matrix product.
///
/// `a` has shape `[..., m, k]`, `b` has shape `[..., k, n]`; the leading
/// (batch) dimensions broadcast against each other, producing
/// `[broadcast(...), m, n]`. Rank must be at least 2 on both sides — wrap
/// vectors in an explicit `[1, k]` / `[k, 1]` if needed, which keeps the
/// intent visible at call sites.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run(a, b, AKind::Normal, BKind::Normal, "matmul")
}

/// `A · Bᵀ` without materializing the transpose: `a` is `[..., m, k]`,
/// `b` is `[..., n, k]`, the result `[..., m, n]`. Bitwise identical to
/// `matmul(a, &b.transpose_last2()?)`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run(a, b, AKind::Normal, BKind::Transposed, "matmul_nt")
}

/// `Aᵀ · B` without materializing the transpose: `a` is `[..., k, m]`,
/// `b` is `[..., k, n]`, the result `[..., m, n]`. Bitwise identical to
/// `matmul(&a.transpose_last2()?, b)`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run(a, b, AKind::Transposed, BKind::Normal, "matmul_tn")
}

/// The seed kernel, kept as the independent reference implementation:
/// single-threaded i-k-j over every broadcast batch, accumulating into
/// a zero-filled buffer, with no folding or tiling. Its only dispatch is
/// the FMA-enabled instantiation of the same loop, which changes speed,
/// not bits. Property tests compare the production paths against this;
/// nothing in production dispatch reaches it.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let plan = Plan::build(a, b, AKind::Normal, BKind::Normal, "matmul", false)?;
    if plan.is_empty() {
        return Tensor::from_vec(Vec::new(), &plan.out_shape);
    }
    let mut out = crate::memory::take_filled(plan.batch * plan.m * plan.n, 0.0);
    let (m, k, n) = (plan.m, plan.k, plan.n);
    let isa = isa::current();
    for (bi, out_mat) in out.chunks_exact_mut(m * n).enumerate() {
        let a_mat = &a.data()[plan.a_offsets.get(bi)..plan.a_offsets.get(bi) + m * k];
        let b_mat = &b.data()[plan.b_offsets.get(bi)..plan.b_offsets.get(bi) + k * n];
        #[cfg(target_arch = "x86_64")]
        if isa >= Isa::Avx2 {
            // Safety: the tier implies AVX2 and FMA.
            unsafe { naive_nn_avx2(a_mat, b_mat, out_mat, k, n) };
            continue;
        }
        naive_nn(a_mat, b_mat, out_mat, k, n);
    }
    Tensor::from_vec(out, &plan.out_shape)
}

/// `C += A @ B`, i-k-j order, one fused multiply-add per term — the
/// reference's inner kernel.
#[inline(always)]
fn naive_nn(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        for (p, &aip) in a[i * k..(i + 1) * k].iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv = aip.mul_add(bv, *cv);
            }
        }
    }
}

/// [`naive_nn`] compiled with AVX2 and FMA.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn naive_nn_avx2(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    debug_assert!(
        n == 0 || (c.len().is_multiple_of(n) && a.len() >= c.len() / n * k && b.len() >= k * n),
        "naive_nn: operands shorter than {}x{k}x{n}",
        c.len().checked_div(n).unwrap_or(0)
    );
    naive_nn(a, b, c, k, n)
}

/// Per-batch element offsets of one operand. The no-broadcast case —
/// nearly every product in the model — is a constant stride, so nothing
/// is materialized; only genuinely broadcast leads pay for the odometer
/// walk and its `Vec`.
enum Offsets {
    /// Batch `bi` starts at `bi * stride`.
    Strided(usize),
    /// Arbitrary broadcast pattern, one entry per batch.
    Explicit(Vec<usize>),
}

impl Offsets {
    #[inline(always)]
    fn get(&self, bi: usize) -> usize {
        match self {
            Offsets::Strided(stride) => bi * stride,
            Offsets::Explicit(v) => v[bi],
        }
    }

    /// The largest offset among batches `0..batch` (`batch >= 1`).
    fn max(&self, batch: usize) -> usize {
        match self {
            Offsets::Strided(stride) => (batch - 1) * stride,
            Offsets::Explicit(v) => v[..batch].iter().copied().max().unwrap_or(0),
        }
    }
}

/// Resolved shapes and per-batch element offsets for one product.
struct Plan {
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    out_shape: Vec<usize>,
    a_offsets: Offsets,
    b_offsets: Offsets,
    /// Whether trailing batch axes were folded into `m`.
    folded: bool,
}

impl Plan {
    /// Resolve shapes, broadcast the leading axes and lay out the batch
    /// walk. With `fold`, trailing batch axes that the right operand
    /// does not vary over are merged into the rows of the left one: a
    /// contiguous run of `[m, k]` matrices against one shared `B` *is*
    /// a single `[d·m, k]` product — row `i` of batch `bi` is row
    /// `bi·m + i` of the tall matrix on both the A and the C side, and
    /// a row's chain never looks at another row. The Eq. 12 gate
    /// (`[B, N, 1, d] @ [d, d]`) becomes one `B·N`-row product instead
    /// of `B·N` single-row ones, and `[B, N, p, m, k] @ [B, N, 1, k, n]`
    /// becomes `B·N` products of `p·m` rows. `Aᵀ` batches interleave
    /// rows across batches and stay as they are. `out_shape` is
    /// unaffected.
    fn build(
        a: &Tensor,
        b: &Tensor,
        ak: AKind,
        bk: BKind,
        op: &'static str,
        fold: bool,
    ) -> Result<Plan> {
        if a.rank() < 2 {
            return Err(TensorError::RankTooSmall {
                op,
                required: 2,
                actual: a.rank(),
            });
        }
        if b.rank() < 2 {
            return Err(TensorError::RankTooSmall {
                op,
                required: 2,
                actual: b.rank(),
            });
        }
        let (ar, br) = (a.rank(), b.rank());
        let (m, ka) = match ak {
            AKind::Normal => (a.shape()[ar - 2], a.shape()[ar - 1]),
            AKind::Transposed => (a.shape()[ar - 1], a.shape()[ar - 2]),
        };
        let (kb, n) = match bk {
            BKind::Normal => (b.shape()[br - 2], b.shape()[br - 1]),
            BKind::Transposed => (b.shape()[br - 1], b.shape()[br - 2]),
        };
        if ka != kb {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: a.shape().to_vec(),
                rhs: b.shape().to_vec(),
            });
        }
        let k = ka;
        let mut lead_a = &a.shape()[..ar - 2];
        let mut lead_b = &b.shape()[..br - 2];
        // Identical leading axes — every per-request product of the
        // serving forward and most of the training step: nothing
        // broadcasts and nothing folds, consecutive batches are
        // consecutive matrices on both sides, so the broadcast
        // resolution below and its vectors are skipped.
        if lead_a == lead_b {
            let mut out_shape = lead_a.to_vec();
            out_shape.push(m);
            out_shape.push(n);
            return Ok(Plan {
                m,
                k,
                n,
                batch: volume(lead_a),
                out_shape,
                a_offsets: Offsets::Strided(m * k),
                b_offsets: Offsets::Strided(k * n),
                folded: false,
            });
        }
        let lead_out = broadcast_shapes(op, lead_a, lead_b)?;
        let mut out_shape = lead_out.clone();
        out_shape.push(m);
        out_shape.push(n);

        // Trailing axes A owns outright (B has extent 1 there, or no
        // axis at all), innermost first.
        let mut lead_out = &lead_out[..];
        let mut m = m;
        if fold && ak == AKind::Normal {
            while let Some((&da, rest_a)) = lead_a.split_last() {
                match lead_b.split_last() {
                    Some((&1, rest_b)) => lead_b = rest_b,
                    None => {}
                    Some(_) => break,
                }
                lead_a = rest_a;
                lead_out = &lead_out[..lead_out.len() - 1];
                m *= da;
            }
        }
        let folded = m != out_shape[out_shape.len() - 2];

        let batch = volume(lead_out);
        let a_offsets = batch_offsets(lead_a, lead_out, m * k);
        let b_offsets = batch_offsets(lead_b, lead_out, k * n);
        Ok(Plan {
            m,
            k,
            n,
            batch,
            out_shape,
            a_offsets,
            b_offsets,
            folded,
        })
    }

    /// Degenerate product: nothing to compute.
    fn is_empty(&self) -> bool {
        self.batch * self.m * self.n == 0
    }
}

/// How a product was split across pool tasks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Split {
    /// Sequential: below the FLOP threshold or a single-thread pool.
    None,
    /// One task per broadcast batch matrix.
    Batch,
    /// Row blocks within each matrix (covers `batch == 1`).
    Rows,
}

/// Pick a split and materialize its `(batch, row_start, row_end)` tasks.
/// Row-block boundaries depend only on the problem shape and thread
/// count target, never on scheduling, so outputs stay deterministic.
fn decompose(
    batch: usize,
    m: usize,
    flops: usize,
    threads: usize,
) -> (Split, Vec<(usize, usize, usize)>) {
    if flops < PARALLEL_FLOP_THRESHOLD || threads <= 1 || batch * m <= 1 {
        return (Split::None, Vec::new());
    }
    if batch >= threads {
        return (Split::Batch, (0..batch).map(|bi| (bi, 0, m)).collect());
    }
    // Thin batch, large matrices: split rows, aiming for ~2 tasks per
    // thread so the self-scheduling pool can balance uneven progress.
    let target = threads * 2;
    let blocks_per_mat = target.div_ceil(batch).clamp(1, m.div_ceil(MR));
    if blocks_per_mat <= 1 {
        return (Split::Batch, (0..batch).map(|bi| (bi, 0, m)).collect());
    }
    let rows_per_block = m.div_ceil(blocks_per_mat);
    let mut tasks = Vec::with_capacity(batch * blocks_per_mat);
    for bi in 0..batch {
        let mut r0 = 0;
        while r0 < m {
            let r1 = (r0 + rows_per_block).min(m);
            tasks.push((bi, r0, r1));
            r0 = r1;
        }
    }
    (Split::Rows, tasks)
}

/// One matrix pair's shape, layout and kernel choice — everything the
/// per-batch walk needs, resolved once per product.
#[derive(Clone, Copy)]
struct Gemm {
    m: usize,
    k: usize,
    n: usize,
    ak: AKind,
    bk: BKind,
    /// Packed-panel path (`true`) or in-place small path.
    blocked: bool,
    isa: Isa,
}

impl Gemm {
    fn new(m: usize, k: usize, n: usize, ak: AKind, bk: BKind) -> Gemm {
        let blocked_min = match bk {
            BKind::Normal => BLOCKED_MIN_FLOPS,
            BKind::Transposed => BLOCKED_MIN_FLOPS_NT,
        };
        // A thin `Aᵀ·G` — a weight gradient with fewer than `THIN_TN_ROWS`
        // output rows, e.g. the decoder's `[640, 32]ᵀ·[640, 512]` — reads
        // G in place: packing all of G's panel pays for a handful of
        // row bands only, and every row task of a split packs it again.
        let thin_tn = ak == AKind::Transposed && m < THIN_TN_ROWS;
        Gemm {
            m,
            k,
            n,
            ak,
            bk,
            blocked: m * n * k >= blocked_min && !thin_tn,
            isa: isa::current(),
        }
    }

    /// Output rows `[r0, r1)` of one matrix pair, written into `c`
    /// (which holds those rows only; its prior contents are ignored).
    fn rows(&self, a: &[f32], b: &[f32], c: &mut [f32], r0: usize, r1: usize) {
        let (m, k, n) = (self.m, self.k, self.n);
        assert!(r0 <= r1 && r1 <= m, "row range {r0}..{r1} outside {m} rows");
        assert!(
            a.len() >= m * k && b.len() >= k * n && c.len() >= (r1 - r0) * n,
            "operand slices shorter than {m}x{k}x{n}"
        );
        if self.blocked {
            gemm_blocked(self, a, b, c, r0, r1);
        } else {
            // Safety: the three extents were asserted above.
            unsafe { gemm_small(self, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), r0, r1) };
        }
    }

    /// Every batch matrix in order, sequentially. Small products come
    /// by the thousand with a few dozen FLOPs each, so their walk proves
    /// its bounds once for the whole batch instead of once per matrix.
    fn batches(&self, a: &[f32], a_off: &Offsets, b: &[f32], b_off: &Offsets, out: &mut [f32]) {
        let (m, k, n) = (self.m, self.k, self.n);
        if self.blocked {
            for (bi, c) in out.chunks_exact_mut(m * n).enumerate() {
                let (ao, bo) = (a_off.get(bi), b_off.get(bi));
                self.rows(&a[ao..ao + m * k], &b[bo..bo + k * n], c, 0, m);
            }
            return;
        }
        let batch = out.len().checked_div(m * n).unwrap_or(0);
        if batch == 0 {
            return;
        }
        assert!(
            a_off.max(batch) + m * k <= a.len() && b_off.max(batch) + k * n <= b.len(),
            "operands shorter than {batch} batches of {m}x{k}x{n}"
        );
        for bi in 0..batch {
            // Safety: every batch's A and B matrix ends at or before the
            // furthest one, which the assertion above placed inside the
            // operand; `bi < out.len() / (m·n)` bounds the C matrix.
            unsafe {
                gemm_small(
                    self,
                    a.as_ptr().add(a_off.get(bi)),
                    b.as_ptr().add(b_off.get(bi)),
                    out.as_mut_ptr().add(bi * m * n),
                    0,
                    m,
                );
            }
        }
    }
}

/// One engine behind [`matmul`], [`matmul_nt`] and [`matmul_tn`], for
/// training, evaluation and the inference engine alike. A product the
/// split leaves whole is a single task, which the pool runs inline on
/// the caller; only real fan-out wakes a worker.
fn run(a: &Tensor, b: &Tensor, ak: AKind, bk: BKind, op: &'static str) -> Result<Tensor> {
    let plan = Plan::build(a, b, ak, bk, op, true)?;
    if plan.is_empty() {
        return Tensor::from_vec(Vec::new(), &plan.out_shape);
    }
    let (m, k, n, batch) = (plan.m, plan.k, plan.n, plan.batch);
    let flops = batch * m * n * k;
    let threads = stwa_pool::current_threads();
    let gemm = Gemm::new(m, k, n, ak, bk);

    let _span = stwa_observe::span!("matmul");
    stwa_observe::counter!("matmul.calls").incr();
    stwa_observe::counter!("matmul.flops").add(2 * flops as u64);
    if plan.folded {
        stwa_observe::counter!("matmul.folded").incr();
    }
    if !gemm.blocked {
        stwa_observe::counter!("matmul.small").incr();
    }

    let (split, tasks) = decompose(batch, m, flops, threads);
    if flops >= PARALLEL_FLOP_THRESHOLD {
        stwa_observe::counter!("matmul.split_eligible").incr();
    }
    match split {
        Split::None => stwa_observe::counter!("matmul.split_none").incr(),
        Split::Batch => stwa_observe::counter!("matmul.split_batch").incr(),
        Split::Rows => stwa_observe::counter!("matmul.split_rows").incr(),
    }
    if tasks.len() > 1 {
        stwa_observe::counter!("matmul.split_fired").incr();
    }

    let mut out = crate::memory::take_scratch(batch * m * n);
    let a_data = a.data();
    let b_data = b.data();
    let out_len = out.len();
    let out_ptr = SendPtr(out.as_mut_ptr());
    debug_assert_eq!(out_len, batch * m * n, "matmul: output length");
    if tasks.is_empty() {
        // One task, which the pool runs on the caller; routed through
        // it so manifests account for every kernel (`pool.tasks`).
        stwa_pool::parallel_for(1, |_| {
            // Safety: single task, and the pool joins before `out` is
            // consumed.
            let c_all = unsafe { std::slice::from_raw_parts_mut(out_ptr.get(), batch * m * n) };
            gemm.batches(a_data, &plan.a_offsets, b_data, &plan.b_offsets, c_all);
        });
    } else {
        stwa_pool::parallel_for(tasks.len(), |t| {
            let (bi, r0, r1) = tasks[t];
            debug_assert!(
                r0 <= r1 && r1 <= m && bi < batch,
                "matmul: task {t} outside the output"
            );
            let a_mat = &a_data[plan.a_offsets.get(bi)..plan.a_offsets.get(bi) + m * k];
            let b_mat = &b_data[plan.b_offsets.get(bi)..plan.b_offsets.get(bi) + k * n];
            // Safety: tasks cover disjoint `[r0, r1)` row ranges of
            // disjoint batch matrices, and the pool joins before `out`
            // is consumed.
            let c = unsafe {
                std::slice::from_raw_parts_mut(
                    out_ptr.get().add(bi * m * n + r0 * n),
                    (r1 - r0) * n,
                )
            };
            gemm.rows(a_mat, b_mat, c, r0, r1);
        });
    }

    Tensor::from_vec(out, &plan.out_shape)
}

/// The leading-axis sum of the per-batch outer products of stacked row
/// vectors, as **one contraction over `d0`**: `a` is `[d0, .., 1, m]`,
/// `g` is `[d0, .., 1, n]` with the same leading axes, the result
/// `[.., m, n]`.
///
/// This is the weight gradient of `[d0, .., 1, m] @ [m, n]` — a row
/// vector per (sample, sensor) against one shared weight — whose
/// two-step form writes a `[d0, .., m, n]` tensor only to sum its
/// leading axis away. Here each output element is the chain
/// `fma(a_{d0-1}, g_{d0-1}, … fma(a₀, g₀, +0.0))`: the product
/// `matmul_tn` computes over the lead-flattened operands — for every
/// trailing batch index, `[d0, m]ᵀ · [d0, n]` — bit for bit. (It is no
/// longer `matmul_tn` + `sum_axis`: that pair rounds each product
/// before the sum adds it.)
pub fn matmul_tn_sum_lead(a: &Tensor, g: &Tensor) -> Result<Tensor> {
    let r = a.rank();
    let row_vectors = r >= 3 && g.rank() == r && a.shape()[r - 2] == 1;
    if !row_vectors || a.shape()[..r - 1] != g.shape()[..r - 1] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_tn_sum_lead",
            lhs: a.shape().to_vec(),
            rhs: g.shape().to_vec(),
        });
    }
    let (d0, m, n) = (a.shape()[0], a.shape()[r - 1], g.shape()[r - 1]);
    if d0 == 0 {
        return Err(TensorError::Invalid(format!(
            "matmul_tn_sum_lead: cannot reduce over empty axis 0 of shape {:?}",
            a.shape()
        )));
    }
    let rest: usize = a.shape()[1..r - 2].iter().product();
    let mut out_shape = a.shape()[1..r - 2].to_vec();
    out_shape.push(m);
    out_shape.push(n);
    if rest * m * n == 0 {
        return Tensor::from_vec(Vec::new(), &out_shape);
    }

    let _span = stwa_observe::span!("matmul");
    stwa_observe::counter!("matmul.calls").incr();
    stwa_observe::counter!("matmul.flops").add(2 * (d0 * rest * m * n) as u64);
    stwa_observe::counter!("matmul.folded").incr();
    stwa_observe::counter!("matmul.small").incr();
    stwa_observe::counter!("matmul.split_none").incr();

    let mut out = crate::memory::take_scratch(rest * m * n);
    let (a_data, g_data) = (a.data(), g.data());
    debug_assert!(
        a_data.len() >= d0 * rest * m && g_data.len() >= d0 * rest * n && out.len() >= rest * m * n,
        "matmul_tn_sum_lead: operands shorter than {d0}x{rest}x{m}x{n}"
    );
    let out_ptr = SendPtr(out.as_mut_ptr());
    let isa = isa::current();
    stwa_pool::parallel_for(1, |_| {
        for ri in 0..rest {
            // Safety: `a` holds `d0·rest·m` floats and `g` `d0·rest·n`
            // (shapes checked above), so element `(i, p)` at
            // `ri·m + i + p·rest·m` and B row `p` at `ri·n + p·rest·n`
            // are in bounds for `i < m`, `p < d0`; `out` holds `rest`
            // matrices of `m·n`; single task, joined before `out` is
            // consumed.
            unsafe {
                let a_ri = AView {
                    ptr: a_data.as_ptr().add(ri * m),
                    rs: 1,
                    ps: rest * m,
                };
                let g_ri = g_data.as_ptr().add(ri * n);
                rank1_rows(
                    isa,
                    a_ri,
                    g_ri,
                    rest * n,
                    d0,
                    m,
                    n,
                    out_ptr.get().add(ri * m * n),
                    true,
                );
            }
        }
    });
    Tensor::from_vec(out, &out_shape)
}

/// Slice-level serving product: `C = A @ B` for one `[m, k] x [k, n]`
/// pair, with the same small/blocked cutover as the tensor entry
/// points — the hook for hand-fused forwards (the inference engine's
/// K/V projections) that already hold their operands as raw rows.
/// `c` is written, never read; each element accumulates its contraction
/// in one ascending chain, so the result is bitwise identical to the
/// equivalent [`matmul`] on any batching of the same rows.
pub fn gemm_nn_slice(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    Gemm::new(m, k, n, AKind::Normal, BKind::Normal).rows(
        &a[..m * k],
        &b[..k * n],
        &mut c[..m * n],
        0,
        m,
    );
}

/// `C = Aᵀ @ B` for one `[k, m]ᵀ x [k, n]` pair of raw rows: the
/// slice-level [`matmul_tn`], bitwise identical to it (and to
/// [`gemm_nn_slice`] on the transposed rows). `c` is written, never read.
pub(crate) fn gemm_tn_slice(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    Gemm::new(m, k, n, AKind::Transposed, BKind::Normal).rows(
        &a[..k * m],
        &b[..k * n],
        &mut c[..m * n],
        0,
        m,
    );
}

/// `C = A·B` over raw rows with A read through a `(row, step)` stride
/// pair — `(k, 1)` for `A [m, k]`, `(1, m)` for `Aᵀ` of a `[k, m]`
/// block, any pair in between — and B's rows `bs` floats apart, both
/// in place: the small path's walk, so each element is the `linalg`
/// chain. C (`[m, n]`, row-major) is written when `first`; otherwise
/// each element's chain continues from the value C holds, which is how
/// a caller walking a long contraction in runs of steps carries it
/// across runs — bitwise the whole contraction in one call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_strided(
    a: &[f32],
    (rs, ps): (usize, usize),
    b: &[f32],
    bs: usize,
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    first: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(k > 0, "gemm_strided: an empty contraction");
    assert!(
        a.len() > (m - 1) * rs + (k - 1) * ps && b.len() >= (k - 1) * bs + n && c.len() >= m * n,
        "gemm_strided: operands shorter than {m}x{k}x{n}"
    );
    let a = AView {
        ptr: a.as_ptr(),
        rs,
        ps,
    };
    let (b, c) = (b.as_ptr(), c.as_mut_ptr());
    // Safety: the extents were asserted above.
    unsafe { rank1_rows(isa::current(), a, b, bs, k, m, n, c, first) };
}

/// [`gemm_nn_slice`] against a pre-packed right operand:
/// `C[rows, n] = A[rows, k] @ packed`, finished by `ep` and written into
/// `c` (never read). The slice-level twin of [`matmul_packed`] — same
/// panel walk, hence the same bits — for callers that produce a few
/// rows of a wide product at a time into their own scratch (the
/// inference engine decodes one sensor block's projections, consumes
/// them, and reuses the buffer). Always sequential.
pub fn gemm_packed_slice(
    a: &[f32],
    packed: &PackedMatrix,
    c: &mut [f32],
    rows: usize,
    ep: Epilogue<'_>,
) {
    let (k, n) = (packed.k, packed.n);
    gemm_prepacked(
        isa::current(),
        &a[..rows * k],
        packed,
        &mut c[..rows * n],
        0,
        rows,
        ep,
    );
}

/// What a packed product does to each output element as its register
/// tile is stored, after the element's whole contraction chain: add
/// the column's `bias` (one rounded add), then, with `relu`, take
/// `max(x, 0)` — per element the order a dense layer's `bias_add_act`
/// runs them in, so `matmul_packed(a, p, Epilogue { bias, relu })` is
/// bitwise `matmul` then `bias_add_act` without a second pass over the
/// output. [`Epilogue::NONE`] stores the chain as it is.
#[derive(Clone, Copy, Debug, Default)]
pub struct Epilogue<'a> {
    /// One float per output column.
    pub bias: Option<&'a [f32]>,
    pub relu: bool,
}

impl Epilogue<'_> {
    /// Store each element's chain unchanged.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        relu: false,
    };

    /// The epilogue as the tiles carry it, for products `n` wide.
    fn store(self, n: usize) -> Store {
        if let Some(bias) = self.bias {
            assert_eq!(bias.len(), n, "epilogue bias for {n} columns");
        }
        Store {
            bias: self.bias.map_or(std::ptr::null(), <[f32]>::as_ptr),
            cols: n,
            relu: self.relu,
        }
    }

    /// `c`'s rows (of `n` floats) finished in place: the `k = 0`
    /// product, whose chains are all `+0.0`.
    fn finish_rows(self, c: &mut [f32], n: usize) {
        let ep = self.store(n);
        for row in c.chunks_exact_mut(n) {
            // Safety: the bias holds `n` floats (checked by `store`).
            unsafe { ep.finish(row) };
        }
    }
}

/// An [`Epilogue`] as a register tile applies it: the bias of the
/// tile's first column (null for none), how many bias floats lie from
/// there on, and the ReLU flag.
#[derive(Clone, Copy)]
struct Store {
    bias: *const f32,
    cols: usize,
    relu: bool,
}

impl Store {
    /// Store the chains unchanged.
    const PLAIN: Store = Store {
        bias: std::ptr::null(),
        cols: 0,
        relu: false,
    };

    fn is_plain(self) -> bool {
        self.bias.is_null() && !self.relu
    }

    /// The same epilogue for a tile starting `j` columns further on.
    ///
    /// # Safety
    ///
    /// With a bias, column `j` must lie inside it (or one past its end).
    #[inline(always)]
    unsafe fn at(self, j: usize) -> Store {
        if self.bias.is_null() {
            return self;
        }
        debug_assert!(
            j <= self.cols,
            "epilogue: column {j} of a {}-float bias",
            self.cols
        );
        Store {
            // Safety: the caller keeps column `j` inside the bias.
            bias: unsafe { self.bias.add(j) },
            cols: self.cols - j,
            ..self
        }
    }

    /// Debug builds: the bias (when there is one) covers `width`
    /// columns from here.
    #[inline(always)]
    fn debug_covers(self, width: usize) {
        debug_assert!(
            self.bias.is_null() || width <= self.cols,
            "epilogue: a {width}-column tile past a {}-float bias",
            self.cols
        );
    }

    /// `row[c] = relu?(row[c] + bias[c])` — each element's epilogue.
    ///
    /// # Safety
    ///
    /// With a bias, it must hold `row.len()` floats.
    #[inline(always)]
    unsafe fn finish(self, row: &mut [f32]) {
        self.debug_covers(row.len());
        if !self.bias.is_null() {
            for (j, v) in row.iter_mut().enumerate() {
                // Safety: column `j < row.len()` of the bias.
                *v += unsafe { *self.bias.add(j) };
            }
        }
        if self.relu {
            for v in row.iter_mut() {
                *v = v.max(0.0);
            }
        }
    }
}

// -------------------------------------------------------------------
// Register tiles
// -------------------------------------------------------------------

/// The left operand as the tile reads it: element `(r, p)` — output row
/// `r`, contraction step `p` — lives at `ptr[r·rs + p·ps]`. `A` is
/// `(rs, ps) = (k, 1)` and `Aᵀ` is `(1, m)`, so the two orientations
/// share every kernel and neither is ever packed.
#[derive(Clone, Copy)]
struct AView {
    ptr: *const f32,
    rs: usize,
    ps: usize,
}

impl AView {
    /// Rows `0..m` and steps `0..k` of one `[m, k]` (or, transposed,
    /// `[k, m]`) row-major matrix starting at `ptr`.
    fn new(ptr: *const f32, ak: AKind, m: usize, k: usize) -> AView {
        let (rs, ps) = match ak {
            AKind::Normal => (k, 1),
            AKind::Transposed => (1, m),
        };
        AView { ptr, rs, ps }
    }

    /// The same matrix seen from row `rows`, step `steps`.
    ///
    /// # Safety
    ///
    /// Element `(rows, steps)` must lie inside the allocation (or one
    /// past its end).
    #[inline(always)]
    unsafe fn at(self, rows: usize, steps: usize) -> AView {
        AView {
            // Safety: the caller keeps the new origin in bounds.
            ptr: unsafe { self.ptr.add(rows * self.rs + steps * self.ps) },
            ..self
        }
    }
}

/// Adjacent `NR`-wide column groups of the right operand as the strip
/// tiles read them: row `p` of group `s` is the `NR` floats at
/// `ptr[s·ss + p·bs ..]`. The strips of a `kc`-deep packed slab are
/// `(bs, ss) = (NR, kc·NR)`; B in place is `(n, NR)`.
#[derive(Clone, Copy)]
struct BView {
    ptr: *const f32,
    bs: usize,
    ss: usize,
}

/// The portable register tile:
/// `C[R × W] = (first ? 0 : C) + A[R × kc] · B[kc × W]`, with row `p` of
/// B at `b[p·bs..][..W]` and row `r` of C at `c[r·cs..][..W]`. `R·W`
/// accumulators live in locals for the whole contraction — one
/// ascending-`p` chain of fused multiply-adds each — and C is touched
/// once at each end (not at all on entry when `first`), each element
/// finished by `ep` as it is stored. Reached through [`tile_on`], which
/// picks the FMA-enabled instantiation.
///
/// # Safety
///
/// For every `r < R`, `p < kc`: element `(r, p)` of `a`,
/// `b[p·bs .. p·bs + W]` and `c[r·cs .. r·cs + W]` must be in bounds of
/// their allocations, and `c` must not alias `a` or `b`; `ep`'s bias,
/// when it has one, holds `W` floats.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile<const R: usize, const W: usize>(
    a: AView,
    b: *const f32,
    bs: usize,
    kc: usize,
    c: *mut f32,
    cs: usize,
    first: bool,
    ep: Store,
) {
    let mut acc = [[0f32; W]; R];
    // Safety (whole body): the caller guarantees every address formed
    // below is in bounds; `[f32; W]` has the alignment of `f32`.
    unsafe {
        if !first {
            for (r, row) in acc.iter_mut().enumerate() {
                *row = c.add(r * cs).cast::<[f32; W]>().read();
            }
        }
        for p in 0..kc {
            let brow = b.add(p * bs).cast::<[f32; W]>().read();
            for (r, row) in acc.iter_mut().enumerate() {
                let av = *a.ptr.add(r * a.rs + p * a.ps);
                for (slot, &bv) in row.iter_mut().zip(brow.iter()) {
                    *slot = av.mul_add(bv, *slot);
                }
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            ep.finish(row);
            c.add(r * cs).cast::<[f32; W]>().write(*row);
        }
    }
}

/// [`tile`] compiled with AVX2 and FMA, so each `mul_add` is one
/// `vfmadd`. At `MR × NR` that is eight ymm accumulators — what a
/// 16-register file holds beside the B row and the broadcast, and just
/// enough chains to keep both FMA ports busy.
///
/// # Safety
///
/// As [`tile`], and the CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx2<const R: usize, const W: usize>(
    a: AView,
    b: *const f32,
    bs: usize,
    kc: usize,
    c: *mut f32,
    cs: usize,
    first: bool,
    ep: Store,
) {
    // Safety: forwarded contract.
    unsafe { tile::<R, W>(a, b, bs, kc, c, cs, first, ep) }
}

/// [`tile`] on the dispatched arm: the FMA instantiation from
/// [`Isa::Avx2`] up, the portable body (libm `fmaf` per term) below.
///
/// # Safety
///
/// As [`tile`]; `isa` must not exceed what the CPU supports (it comes
/// from [`isa::current`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_on<const R: usize, const W: usize>(
    isa: Isa,
    a: AView,
    b: *const f32,
    bs: usize,
    kc: usize,
    c: *mut f32,
    cs: usize,
    first: bool,
    ep: Store,
) {
    // Safety: forwarded contract; the FMA arm is guarded by `isa`.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        if isa >= Isa::Avx2 {
            return tile_avx2::<R, W>(a, b, bs, kc, c, cs, first, ep);
        }
        tile::<R, W>(a, b, bs, kc, c, cs, first, ep)
    }
}

/// `R` rows by `S` adjacent strips with explicit 512-bit intrinsics:
/// one zmm accumulator per (row, strip), one `vfmadd` per term. A chain
/// retires one term per FMA latency (4 cycles) and two FMA ports issue
/// per cycle, so eight chains saturate the unit: the `8 × 2` shape keeps
/// sixteen in flight and still leaves room for the two B rows and the
/// broadcast in the 32-register file.
///
/// # Safety
///
/// For every `r < R`, `s < S`, `p < kc`: element `(r, p)` of `a`, the
/// `NR` floats of `b` at group `s` row `p`, and
/// `c[r·cs + s·NR .. r·cs + (s + 1)·NR]` must be in bounds; `c` must
/// not alias `a` or `b`; `ep`'s bias, when it has one, holds `S·NR`
/// floats; the CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const R: usize, const S: usize>(
    a: AView,
    b: BView,
    kc: usize,
    c: *mut f32,
    cs: usize,
    first: bool,
    ep: Store,
) {
    use std::arch::x86_64::*;
    let AView { ptr: a, rs, ps } = a;
    // Safety (whole block): addresses are in bounds by the caller's
    // contract; unaligned load/store intrinsics have no alignment
    // requirement.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); S]; R];
        if !first {
            for (r, row) in acc.iter_mut().enumerate() {
                for (s, slot) in row.iter_mut().enumerate() {
                    *slot = _mm512_loadu_ps(c.add(r * cs + s * NR));
                }
            }
        }
        // Each accumulator takes its rank-1 updates one at a time in
        // ascending `p`.
        for p in 0..kc {
            let mut bv = [_mm512_setzero_ps(); S];
            for (s, slot) in bv.iter_mut().enumerate() {
                *slot = _mm512_loadu_ps(b.ptr.add(s * b.ss + p * b.bs));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add(r * rs + p * ps));
                for (slot, &bvs) in row.iter_mut().zip(bv.iter()) {
                    *slot = _mm512_fmadd_ps(av, bvs, *slot);
                }
            }
        }
        if !ep.is_plain() {
            ep.debug_covers(S * NR);
            // The epilogue, per element in `bias_add_act`'s order: one
            // rounded add of the column's bias, then `max(x, 0)` —
            // `vmaxps` returns its second operand, `+0.0`, for a NaN or
            // a zero, as `f32::max(x, 0.0)` does.
            let zero = _mm512_setzero_ps();
            for s in 0..S {
                let bias = if ep.bias.is_null() {
                    None
                } else {
                    Some(_mm512_loadu_ps(ep.bias.add(s * NR)))
                };
                for row in acc.iter_mut() {
                    if let Some(bias) = bias {
                        row[s] = _mm512_add_ps(row[s], bias);
                    }
                    if ep.relu {
                        row[s] = _mm512_max_ps(row[s], zero);
                    }
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                _mm512_storeu_ps(c.add(r * cs + s * NR), v);
            }
        }
    }
}

/// An `R`-row tile across `S` adjacent full strips on the dispatched
/// arm: AVX-512 holds the whole `R × S·NR` block in registers, the
/// narrower arms run it one `NR`-wide strip at a time.
///
/// # Safety
///
/// As [`tile_avx512`] minus the CPU requirement; `isa` must not exceed
/// what the CPU supports (it comes from [`isa::current`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_strips<const R: usize, const S: usize>(
    isa: Isa,
    a: AView,
    b: BView,
    kc: usize,
    c: *mut f32,
    cs: usize,
    first: bool,
    ep: Store,
) {
    // Safety: forwarded contract; the ISA arms are guarded by `isa`.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        if isa >= Isa::Avx512 {
            return tile_avx512::<R, S>(a, b, kc, c, cs, first, ep);
        }
        for s in 0..S {
            tile_on::<R, NR>(
                isa,
                a,
                b.ptr.add(s * b.ss),
                b.bs,
                kc,
                c.add(s * NR),
                cs,
                first,
                ep.at(s * NR),
            );
        }
    }
}

/// Cover `$rows` output rows with bands of `R` rows, tallest first, and
/// run `$body` once per band with `$i` the band's first row and `$R` a
/// constant: `2·MR` rows when `$tall` (the AVX-512 strip tiles, whose
/// register file holds sixteen accumulators), then [`MR`], then single
/// leftover rows.
macro_rules! for_bands {
    ($tall:expr, $rows:expr, |$R:ident, $i:ident| $body:expr) => {{
        let mut $i = 0;
        if $tall {
            const $R: usize = 2 * MR;
            while $i + $R <= $rows {
                $body;
                $i += $R;
            }
        }
        {
            const $R: usize = MR;
            while $i + $R <= $rows {
                $body;
                $i += $R;
            }
        }
        {
            const $R: usize = 1;
            while $i < $rows {
                $body;
                $i += $R;
            }
        }
    }};
}

/// `rows` output rows across `S` adjacent full strips, band by band.
///
/// # Safety
///
/// `a` addresses `rows` rows of `kc` steps, `b` holds `S` groups of
/// `kc` rows, and `c` has `rows` rows of stride `cs` with `S·NR`
/// writable columns each.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn strip_bands<const S: usize>(
    isa: Isa,
    a: AView,
    b: BView,
    kc: usize,
    c: *mut f32,
    cs: usize,
    rows: usize,
    first: bool,
    ep: Store,
) {
    // Safety: band `i..i + R` lies inside `rows`.
    unsafe {
        for_bands!(isa >= Isa::Avx512, rows, |R, i| tile_strips::<R, S>(
            isa,
            a.at(i, 0),
            b,
            kc,
            c.add(i * cs),
            cs,
            first,
            ep
        ));
    }
}

// -------------------------------------------------------------------
// Small products: operands read in place, nothing packed
// -------------------------------------------------------------------

/// Rows `[r0, r1)` of a product below the blocked cutover, written to
/// `c`. `A·B` and `Aᵀ·B` read B rows in place (see [`rank1_rows`]);
/// `A·Bᵀ` is a dot product per element, four at a time. The whole
/// contraction runs in one pass.
///
/// # Safety
///
/// `r0 <= r1 <= g.m`; `a` and `b` must be readable for the `m·k` and
/// `k·n` floats of one matrix each, and `c` writable for the
/// `(r1 - r0)·n` floats of the requested rows.
#[inline(always)]
unsafe fn gemm_small(g: &Gemm, a: *const f32, b: *const f32, c: *mut f32, r0: usize, r1: usize) {
    let (m, k, n) = (g.m, g.k, g.n);
    debug_assert!(r0 <= r1 && r1 <= m, "gemm_small: rows {r0}..{r1} of {m}");
    // Safety (whole body): the extents are the caller's contract; rows
    // `r0..r1` of A start at element `(r0, 0)`, inside `m·k`.
    unsafe {
        if k == 0 {
            // Nothing to contract (and no B row to point a tile at).
            c.write_bytes(0, (r1 - r0) * n);
            return;
        }
        if g.bk == BKind::Transposed {
            // No public entry point builds a double-transposed product;
            // it would just be matmul(b, a) reversed.
            assert!(g.ak == AKind::Normal, "no Aᵀ·Bᵀ entry point");
            return small_nt(
                g.isa,
                std::slice::from_raw_parts(a, m * k),
                std::slice::from_raw_parts(b, n * k),
                std::slice::from_raw_parts_mut(c, (r1 - r0) * n),
                r0,
                r1,
                k,
                n,
            );
        }
        let a = AView::new(a, g.ak, m, k).at(r0, 0);
        rank1_rows(g.isa, a, b, n, k, r1 - r0, n, c, true);
    }
}

/// `rows × n` outputs of an `A·B` / `Aᵀ·B` product with both operands
/// read in place: column groups — pairs of `NR`, one `NR`, then the
/// const-width tiles 8, 4 and 1 — each walked in row bands. C is
/// written when `first`, else every element's chain continues from the
/// value C holds.
///
/// # Safety
///
/// `a` addresses `rows` rows of `k` contraction steps; row `p < k` of B
/// is the `n` floats at `b[p·bs..]`; `c` has `rows` rows of stride `n`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn rank1_rows(
    isa: Isa,
    a: AView,
    b: *const f32,
    bs: usize,
    k: usize,
    rows: usize,
    n: usize,
    c: *mut f32,
    first: bool,
) {
    let mut j = 0;
    // Safety: every group covers columns `[j, j + W)` with `j + W <= n`,
    // every band rows `[i, i + R)` inside `rows`.
    unsafe {
        let groups = |j: usize| BView {
            ptr: b.add(j),
            bs,
            ss: NR,
        };
        while j + 2 * NR <= n {
            strip_bands::<2>(isa, a, groups(j), k, c.add(j), n, rows, first, Store::PLAIN);
            j += 2 * NR;
        }
        if j + NR <= n {
            strip_bands::<1>(isa, a, groups(j), k, c.add(j), n, rows, first, Store::PLAIN);
            j += NR;
        }
        if j + 8 <= n {
            narrow_bands::<8>(isa, a, b.add(j), bs, k, c.add(j), n, rows, first);
            j += 8;
        }
        if j + 4 <= n {
            narrow_bands::<4>(isa, a, b.add(j), bs, k, c.add(j), n, rows, first);
            j += 4;
        }
        while j < n {
            narrow_bands::<1>(isa, a, b.add(j), bs, k, c.add(j), n, rows, first);
            j += 1;
        }
    }
}

/// `rows` output rows of one `W < NR` wide column tile with B read in
/// place, band by band on the dispatched [`tile_on`] (C written when
/// `first`, continued otherwise).
///
/// # Safety
///
/// `a` addresses `rows` rows of `k` steps; row `p < k` of B is the `W`
/// floats at `b[p·bs..]`; `c` has `rows` rows of stride `cs` with `W`
/// writable columns each; `isa` as for [`tile_on`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn narrow_bands<const W: usize>(
    isa: Isa,
    a: AView,
    b: *const f32,
    bs: usize,
    k: usize,
    c: *mut f32,
    cs: usize,
    rows: usize,
    first: bool,
) {
    // Safety: band `i..i + R` lies inside `rows`.
    unsafe {
        for_bands!(false, rows, |R, i| tile_on::<R, W>(
            isa,
            a.at(i, 0),
            b,
            bs,
            k,
            c.add(i * cs),
            cs,
            first,
            Store::PLAIN
        ));
    }
}

/// Small `A·Bᵀ` with `b` stored `[n, k]` on the dispatched arm: the
/// FMA instantiation of [`small_nt_body`] from [`Isa::Avx2`] up.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn small_nt(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if isa >= Isa::Avx2 {
        // Safety: the tier implies AVX2 and FMA.
        return unsafe { small_nt_avx2(a, b, c, r0, r1, k, n) };
    }
    small_nt_body(a, b, c, r0, r1, k, n)
}

/// [`small_nt_body`] compiled with AVX2 and FMA.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn small_nt_avx2(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(
        r0 <= r1 && a.len() >= r1 * k && b.len() >= n * k && c.len() >= (r1 - r0) * n,
        "small_nt: operands shorter than rows {r0}..{r1} of ?x{k}x{n}"
    );
    small_nt_body(a, b, c, r0, r1, k, n)
}

/// Each output element is a row-times-row dot product, a reduction the
/// order contract forbids vectorizing — so four neighbouring outputs
/// run as four independent fused-multiply-add chains, which is what
/// hides the FMA latency.
#[inline(always)]
fn small_nt_body(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, r1: usize, k: usize, n: usize) {
    for i in r0..r1 {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[(i - r0) * n..(i - r0 + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let rows = &b[j * k..(j + 4) * k];
            let (b0, rest) = rows.split_at(k);
            let (b1, rest) = rest.split_at(k);
            let (b2, b3) = rest.split_at(k);
            let mut acc = [0f32; 4];
            for ((((&av, &v0), &v1), &v2), &v3) in a_row.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                acc[0] = av.mul_add(v0, acc[0]);
                acc[1] = av.mul_add(v1, acc[1]);
                acc[2] = av.mul_add(v2, acc[2]);
                acc[3] = av.mul_add(v3, acc[3]);
            }
            c_row[j..j + 4].copy_from_slice(&acc);
            j += 4;
        }
        for (jj, cv) in c_row.iter_mut().enumerate().skip(j) {
            let mut acc = 0f32;
            for (&av, &bv) in a_row.iter().zip(&b[jj * k..(jj + 1) * k]) {
                acc = av.mul_add(bv, acc);
            }
            *cv = acc;
        }
    }
}

// -------------------------------------------------------------------
// Blocked kernel
// -------------------------------------------------------------------

/// Output rows one pass of [`panel_pass`] keeps hot: `ROW_BLOCK × KC`
/// floats of A (128 KiB) stay L2-resident while every strip pair
/// streams past them.
const ROW_BLOCK: usize = 128;

thread_local! {
    /// Reused packing scratch: one B slab (`min(KC, k) × n`, `n`
    /// rounded up to `NR` strips) per thread, so steady-state kernels
    /// allocate nothing. It only ever grows: [`pack_b`] writes every
    /// lane a pass reads, so a smaller product leaves the tail alone
    /// instead of truncating it for the next big one to zero-fill
    /// again.
    static PACK_B: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Cache-blocked GEMM over output rows `[r0, r1)` of one matrix pair.
///
/// Slabs of B (`kc × NR` strips, transposed on the fly for
/// [`BKind::Transposed`]) are packed contiguous so the tile streams B
/// linearly; A is read where it lies. The first panel pass writes C
/// from zeroed accumulators, later passes load, accumulate along
/// ascending `p`, and store back, keeping every element's f32 chain
/// identical to the small kernels'.
fn gemm_blocked(g: &Gemm, a: &[f32], b: &[f32], c: &mut [f32], r0: usize, r1: usize) {
    let (m, k, n) = (g.m, g.k, g.n);
    assert!(r0 <= r1 && r1 <= m, "row range {r0}..{r1} outside {m} rows");
    assert!(a.len() >= m * k, "A shorter than {m}x{k}");
    if k == 0 {
        c[..(r1 - r0) * n].fill(0.0);
        return;
    }
    if r0 == r1 {
        return;
    }
    let a = AView::new(a.as_ptr(), g.ak, m, k);
    let panel_elems = KC.min(k) * n.div_ceil(NR) * NR;
    PACK_B.with(|buf| {
        let mut bpanel = buf.borrow_mut();
        if bpanel.len() < panel_elems {
            bpanel.resize(panel_elems, 0.0);
        }
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            pack_b(&mut bpanel, b, k0, kc, k, n, g.bk);
            // Safety: rows `r0..r1` lie below `m` and contraction steps
            // `k0..k0 + kc` below `k`, so every element the pass reads
            // is inside the `m·k` floats asserted above.
            unsafe {
                panel_pass(
                    g.isa,
                    a.at(r0, k0),
                    &bpanel,
                    kc,
                    c,
                    r1 - r0,
                    n,
                    k0 == 0,
                    Store::PLAIN,
                )
            };
            k0 += kc;
        }
    });
}

/// One `kc`-deep pass of `rows` output rows against a packed B slab,
/// whose strips are `kc·NR` floats each: row blocks of [`ROW_BLOCK`],
/// inside each the full strips two at a time (at most 32 KiB of B,
/// L1-resident while the block's bands stream past), inside each pair
/// the row bands. An odd last full strip runs alone; a ragged final
/// strip goes through [`edge`]. Every tile finishes its elements with
/// `ep` (a plain store unless this is a packed product's last slab).
///
/// # Safety
///
/// `a` must address `rows` rows of `kc` contraction steps; `ep`'s
/// bias, when it has one, holds `n` floats.
#[allow(clippy::too_many_arguments)]
unsafe fn panel_pass(
    isa: Isa,
    a: AView,
    panel: &[f32],
    kc: usize,
    c: &mut [f32],
    rows: usize,
    n: usize,
    first: bool,
    ep: Store,
) {
    let (full, ragged) = (n / NR, n % NR);
    let (strip, panel_len) = (kc * NR, panel.len());
    assert!(c.len() >= rows * n, "C shorter than {rows}x{n}");
    assert!(
        kc <= KC && panel_len >= n.div_ceil(NR) * strip,
        "B slab shorter than {kc}x{n}"
    );
    let (panel, c) = (panel.as_ptr(), c.as_mut_ptr());
    // Safety: block `i0..i0 + rb` lies inside `rows`; A by the caller's
    // contract. Strip `js` starts at `js·kc·NR` and spans `kc·NR`
    // floats, inside the panel asserted above; full strips write `NR`
    // columns at `js·NR + NR <= n` of C (and read as many bias floats),
    // the ragged one only its live columns.
    unsafe {
        let strips = |js: usize, s: usize| {
            debug_assert!((js + s) * strip <= panel_len, "strips {js}+{s} past the slab");
            BView {
                ptr: panel.add(js * strip),
                bs: NR,
                ss: strip,
            }
        };
        for i0 in (0..rows).step_by(ROW_BLOCK) {
            let rb = ROW_BLOCK.min(rows - i0);
            let (a, c) = (a.at(i0, 0), c.add(i0 * n));
            let mut js = 0;
            while js + 2 <= full {
                let ep = ep.at(js * NR);
                strip_bands::<2>(isa, a, strips(js, 2), kc, c.add(js * NR), n, rb, first, ep);
                js += 2;
            }
            if js < full {
                let ep = ep.at(js * NR);
                strip_bands::<1>(isa, a, strips(js, 1), kc, c.add(js * NR), n, rb, first, ep);
            }
            if ragged > 0 {
                let (b, c, ep) = (strips(full, 1), c.add(full * NR), ep.at(full * NR));
                for_bands!(isa >= Isa::Avx512, rb, |R, i| edge::<R>(
                    isa,
                    a.at(i, 0),
                    b,
                    kc,
                    c.add(i * n),
                    n,
                    ragged,
                    first,
                    ep
                ));
            }
        }
    }
}

/// One `R`-row band of the ragged final strip: the full `NR` width is
/// computed on the panel's zero padding into a stack tile and only the
/// `nr` live columns are finished by `ep` and copied out, so padded
/// lanes never reach C (nor read past the bias).
///
/// # Safety
///
/// `a` addresses `R` rows of `kc` steps; `b` is one packed strip; `c`
/// has `R` rows of stride `n` with `nr` writable columns each; `ep`'s
/// bias, when it has one, holds `nr` floats.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn edge<const R: usize>(
    isa: Isa,
    a: AView,
    b: BView,
    kc: usize,
    c: *mut f32,
    n: usize,
    nr: usize,
    first: bool,
    ep: Store,
) {
    debug_assert!(nr < NR, "edge: {nr} live columns of a ragged strip");
    let mut tile = [[0f32; NR]; R];
    // Safety: the stack tile is `R` rows of stride `NR`; C is touched
    // for `nr` columns per row only.
    unsafe {
        if !first {
            for (r, row) in tile.iter_mut().enumerate() {
                std::ptr::copy_nonoverlapping(c.add(r * n), row.as_mut_ptr(), nr);
            }
        }
        tile_strips::<R, 1>(
            isa,
            a,
            b,
            kc,
            tile.as_mut_ptr().cast(),
            NR,
            first,
            Store::PLAIN,
        );
        for (r, row) in tile.iter_mut().enumerate() {
            ep.finish(&mut row[..nr]);
            std::ptr::copy_nonoverlapping(row.as_ptr(), c.add(r * n), nr);
        }
    }
}

/// Pack the `[k0, k0+kc)` slab of B into `NR`-wide strips `kc` deep:
/// `panel[js*kc*NR + p*NR + jj] = B[k0+p][js*NR+jj]`, zero-padding the
/// ragged final strip. The slab fills `panel[..ceil(n/NR)·kc·NR]`.
fn pack_b(panel: &mut [f32], b: &[f32], k0: usize, kc: usize, k: usize, n: usize, bk: BKind) {
    let n_strips = n.div_ceil(NR);
    debug_assert!(
        k0 + kc <= k && panel.len() >= n_strips * kc * NR,
        "slab {k0}+{kc} of {k}x{n} does not fit {} floats",
        panel.len()
    );
    for js in 0..n_strips {
        let j0 = js * NR;
        let nr = NR.min(n - j0);
        let strip = &mut panel[js * kc * NR..(js + 1) * kc * NR];
        match bk {
            BKind::Normal => {
                for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    let src = &b[(k0 + p) * n + j0..(k0 + p) * n + j0 + nr];
                    dst[..nr].copy_from_slice(src);
                    dst[nr..].fill(0.0);
                }
            }
            BKind::Transposed => {
                // B is `[n, k]`; strip column jj is a contiguous B row.
                for dst in strip.chunks_exact_mut(NR) {
                    dst[nr..].fill(0.0);
                }
                for jj in 0..nr {
                    let src = &b[(j0 + jj) * k + k0..(j0 + jj) * k + k0 + kc];
                    for (p, &v) in src.iter().enumerate() {
                        strip[p * NR + jj] = v;
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------------------
// Pre-packed weights
// -------------------------------------------------------------------

/// A `[k, n]` matrix packed once into the blocked kernel's panel layout
/// and reused across calls — the serving-path complement to
/// [`matmul`], which re-packs its right operand on every invocation.
///
/// Layout: the slabs of steps `[k0, k0 + kc)`, `kc = min(KC, k - k0)`,
/// back to back, each holding `ceil(n / NR)` strips of `kc · NR` floats
/// in exactly the order [`pack_b`] produces (ragged edges zero-padded),
/// so the panels are `k · ceil(n / NR) · NR` floats: B plus the ragged
/// strip's padding. Because the slabs are bit-for-bit what the per-call
/// packer would have built, [`matmul_packed`] inherits the kernel order
/// contract and stays bitwise identical to [`matmul`] and
/// [`matmul_reference`].
pub struct PackedMatrix {
    panels: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedMatrix {
    /// Pack a rank-2 `[k, n]` tensor. Weights above neither dimension
    /// limit exist; this is meant for frozen layer weights.
    pub fn pack(b: &Tensor) -> Result<PackedMatrix> {
        if b.rank() != 2 {
            return Err(TensorError::Invalid(format!(
                "PackedMatrix: expected a rank-2 [k, n] matrix, got {:?}",
                b.shape()
            )));
        }
        let (k, n) = (b.shape()[0], b.shape()[1]);
        let width = n.div_ceil(NR) * NR;
        let mut panels = vec![0f32; k * width];
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            pack_b(&mut panels[k0 * width..], b.data(), k0, kc, k, n, BKind::Normal);
            k0 += kc;
        }
        Ok(PackedMatrix { panels, k, n })
    }

    /// Contraction depth (`k`) of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (`n`) of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed panels: `4 · k · ceil(n / NR) · NR`, the
    /// ragged strip's zero lanes included.
    pub fn packed_bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }
}

/// Shape checks shared by the packed entry points (f32 here, int8 in
/// [`crate::quant`]): the flattened row count of `a = [..., m, k]` and
/// the output shape `[..., m, n]`.
pub(crate) fn packed_dims(
    a: &Tensor,
    k: usize,
    n: usize,
    op: &'static str,
) -> Result<(usize, Vec<usize>)> {
    let ar = a.rank();
    if ar < 2 {
        return Err(TensorError::RankTooSmall {
            op,
            required: 2,
            actual: ar,
        });
    }
    if a.shape()[ar - 1] != k {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().to_vec(),
            rhs: vec![k, n],
        });
    }
    let mut out_shape = a.shape()[..ar - 1].to_vec();
    out_shape.push(n);
    Ok((a.shape()[..ar - 1].iter().product(), out_shape))
}

/// `a @ packed` where `a` is `[..., m, k]` and the packed matrix stands
/// for a shared `[k, n]` right operand, each element finished by `ep`.
/// All leading axes of `a` flatten into rows (each output row's
/// summation chain is unchanged by the flattening), producing `[..., m,
/// n]`. Products big enough to row-split go across the pool; the rest
/// are one task on the caller. Bitwise identical to `matmul(a, b)` for
/// the tensor `b` that was packed, followed by `ep`'s bias add and ReLU.
pub fn matmul_packed(a: &Tensor, packed: &PackedMatrix, ep: Epilogue<'_>) -> Result<Tensor> {
    let (k, n) = (packed.k, packed.n);
    let (rows, out_shape) = packed_dims(a, k, n, "matmul_packed")?;
    if rows * n == 0 {
        return Tensor::from_vec(Vec::new(), &out_shape);
    }

    let _span = stwa_observe::span!("matmul");
    stwa_observe::counter!("matmul.calls").incr();
    stwa_observe::counter!("matmul.packed_calls").incr();
    stwa_observe::counter!("matmul.flops").add(2 * (rows * n * k) as u64);

    let mut out = crate::memory::take_scratch(rows * n);
    let a_data = &a.data()[..rows * k];
    let out_len = out.len();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let isa = isa::current();
    let (_, split) = decompose(1, rows, rows * n * k, stwa_pool::current_threads());
    let whole = [(0, 0, rows)];
    let tasks = if split.is_empty() { &whole[..] } else { &split[..] };
    stwa_pool::parallel_for(tasks.len(), |t| {
        let (_, r0, r1) = tasks[t];
        debug_assert!(
            r0 <= r1 && r1 * n <= out_len,
            "matmul_packed: rows {r0}..{r1} past the output"
        );
        // Safety: tasks cover disjoint `[r0, r1)` row ranges and the
        // pool joins before `out` is consumed.
        let c = unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n) };
        gemm_prepacked(isa, a_data, packed, c, r0, r1, ep);
    });
    Tensor::from_vec(out, &out_shape)
}

/// [`matmul_packed`] without an epilogue, under the name the frozen
/// `benchmark/` imports.
pub fn matmul_packed_lean(a: &Tensor, packed: &PackedMatrix) -> Result<Tensor> {
    matmul_packed(a, packed, Epilogue::NONE)
}

/// [`gemm_blocked`] with the B panels read from a [`PackedMatrix`]
/// instead of packed per call. Same slab / [`panel_pass`] walk, same
/// ascending-`p` accumulation — bitwise identical output — with `ep`
/// applied by the last slab's tiles as they store. `a` is `[rows, k]`
/// row-major with `r1 <= rows`.
fn gemm_prepacked(
    isa: Isa,
    a: &[f32],
    packed: &PackedMatrix,
    c: &mut [f32],
    r0: usize,
    r1: usize,
    ep: Epilogue<'_>,
) {
    let (k, n) = (packed.k, packed.n);
    assert!(r0 <= r1 && a.len() >= r1 * k, "A shorter than {r1}x{k}");
    if k == 0 {
        let c = &mut c[..(r1 - r0) * n];
        c.fill(0.0);
        ep.finish_rows(c, n);
        return;
    }
    if r0 == r1 {
        return;
    }
    let last = ep.store(n);
    let a = AView::new(a.as_ptr(), AKind::Normal, r1, k);
    let width = n.div_ceil(NR) * NR;
    // Slab `[k0, k0 + kc)` is the `kc · width` floats from `k0 · width`.
    debug_assert_eq!(packed.panels.len(), k * width, "panels of {k}x{n}");
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let slab = &packed.panels[k0 * width..(k0 + kc) * width];
        let ep = if k0 + kc == k { last } else { Store::PLAIN };
        // Safety: rows `r0..r1` and steps `k0..k0 + kc` of the row-major
        // `[r1, k]` matrix asserted above; the bias holds `n` floats.
        unsafe { panel_pass(isa, a.at(r0, k0), slab, kc, c, r1 - r0, n, k0 == 0, ep) };
        k0 += kc;
    }
}

/// Flat element offset of every broadcast batch's matrix start.
fn batch_offsets(lead: &[usize], lead_out: &[usize], mat_elems: usize) -> Offsets {
    let batch = volume(lead_out);
    // No broadcasting: consecutive batches are consecutive matrices.
    if lead == lead_out {
        return Offsets::Strided(mat_elems);
    }
    // One matrix shared by every batch (e.g. a weight applied across a
    // batched activation): constant offset 0.
    if volume(lead) == 1 {
        return Offsets::Strided(0);
    }
    // Broadcast strides in units of matrices; scaled to element offsets
    // when pushed.
    let bcast = broadcast_strides(lead, lead_out);
    let rank = lead_out.len();
    let mut offsets = Vec::with_capacity(batch);
    let mut idx = vec![0usize; rank];
    let mut off = 0usize;
    for _ in 0..batch {
        offsets.push(off * mat_elems);
        for ax in (0..rank).rev() {
            idx[ax] += 1;
            off += bcast[ax];
            if idx[ax] < lead_out[ax] {
                break;
            }
            idx[ax] = 0;
            off -= bcast[ax] * lead_out[ax];
        }
    }
    Offsets::Explicit(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn matmul_2x2() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // [2,3] @ [3,1]
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 1.0, 1.0], &[3, 1]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 1]);
        assert_eq!(c.data(), &[6.0, 15.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(matmul(&a, &i).unwrap().data(), a.data());
        assert_eq!(matmul(&i, &a).unwrap().data(), a.data());
    }

    #[test]
    fn matmul_batched_same_batch() {
        // Two independent 2x2 products stacked in a batch axis.
        let a = t(&[1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = t(&[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn matmul_broadcast_b_over_batch() {
        // a: [2, 2, 2] batched; b: [2, 2] shared across the batch.
        let a = t(&[1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0], &[2, 2, 2]);
        let b = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn matmul_broadcast_nested_batch() {
        // a: [2, 1, 1, 3], b: [3, 3, 2] -> out [2, 3, 1, 2]
        let a = t(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0], &[2, 1, 1, 3]);
        let b = Tensor::ones(&[3, 3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 3, 1, 2]);
        // First batch row sums three ones -> 3; second uses twos -> 6.
        assert_eq!(c.data()[0], 3.0);
        assert_eq!(c.data()[11], 6.0);
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_rank_too_small() {
        let v = Tensor::zeros(&[3]);
        let m = Tensor::zeros(&[3, 3]);
        assert!(matches!(
            matmul(&v, &m),
            Err(TensorError::RankTooSmall { op: "matmul", .. })
        ));
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Force the threaded path with a batch big enough to cross the
        // FLOP threshold, then verify against a direct computation.
        let batch = 64;
        let (m, k, n) = (16, 16, 16);
        let a = Tensor::from_fn(&[batch, m, k], |i| ((i[0] + i[1] * 3 + i[2]) % 7) as f32);
        let b = Tensor::from_fn(&[batch, k, n], |i| {
            ((i[0] * 2 + i[1] + i[2] * 5) % 5) as f32
        });
        let c = matmul(&a, &b).unwrap();
        // Spot-check a handful of entries against the definition.
        for &(bi, i, j) in &[(0usize, 0usize, 0usize), (13, 5, 7), (63, 15, 15)] {
            let mut expect = 0.0;
            for p in 0..k {
                expect += a.at(&[bi, i, p]) * b.at(&[bi, p, j]);
            }
            assert!((c.at(&[bi, i, j]) - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn blocked_kernel_bitwise_matches_reference() {
        // Big enough to take the blocked path, ragged in every blocking
        // dimension (m % MR, n % NR, k % KC all nonzero).
        let (m, k, n) = (67, 301, 53);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 31 + i[1] * 7) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * 17 + i[1] * 3) % 11) as f32 - 5.0);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert_eq!(fast.data(), slow.data(), "blocked kernel drifted");
    }

    #[test]
    fn nt_matches_explicit_transpose_bitwise() {
        let (m, k, n) = (21, 130, 37);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 5 + i[1]) % 9) as f32 - 4.0);
        let b = Tensor::from_fn(&[n, k], |i| ((i[0] + i[1] * 11) % 7) as f32 - 3.0);
        let fused = matmul_nt(&a, &b).unwrap();
        let explicit = matmul(&a, &b.transpose_last2().unwrap()).unwrap();
        assert_eq!(fused.shape(), &[m, n]);
        assert_eq!(fused.data(), explicit.data(), "matmul_nt drifted");
    }

    #[test]
    fn tn_matches_explicit_transpose_bitwise() {
        let (m, k, n) = (34, 77, 19);
        let a = Tensor::from_fn(&[k, m], |i| ((i[0] * 3 + i[1] * 13) % 8) as f32 - 3.5);
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * 7 + i[1]) % 6) as f32 - 2.0);
        let fused = matmul_tn(&a, &b).unwrap();
        let explicit = matmul(&a.transpose_last2().unwrap(), &b).unwrap();
        assert_eq!(fused.shape(), &[m, n]);
        assert_eq!(fused.data(), explicit.data(), "matmul_tn drifted");
    }

    #[test]
    fn nt_tn_broadcast_batches() {
        let a = Tensor::from_fn(&[2, 1, 4, 6], |i| (i[0] + i[2] * 2 + i[3]) as f32);
        let b = Tensor::from_fn(&[3, 5, 6], |i| (i[0] * 2 + i[1] + i[2]) as f32);
        let fused = matmul_nt(&a, &b).unwrap();
        let explicit = matmul(&a, &b.transpose_last2().unwrap()).unwrap();
        assert_eq!(fused.shape(), &[2, 3, 4, 5]);
        assert_eq!(fused.data(), explicit.data());

        let at = Tensor::from_fn(&[2, 1, 6, 4], |i| (i[0] + i[2] * 2 + i[3]) as f32);
        let bt = Tensor::from_fn(&[3, 6, 5], |i| (i[0] * 2 + i[1] + i[2]) as f32);
        let fused = matmul_tn(&at, &bt).unwrap();
        let explicit = matmul(&at.transpose_last2().unwrap(), &bt).unwrap();
        assert_eq!(fused.shape(), &[2, 3, 4, 5]);
        assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn degenerate_dims_produce_empty_or_zero() {
        // k == 0: sums over nothing -> zeros of shape [m, n].
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 4]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        assert!(c.data().iter().all(|&x| x == 0.0));
        // m == 0: empty output.
        let c = matmul(&Tensor::zeros(&[0, 5]), &Tensor::zeros(&[5, 2])).unwrap();
        assert_eq!(c.shape(), &[0, 2]);
        assert!(c.is_empty());
        // Same through the transposed entry points.
        let c = matmul_nt(&Tensor::zeros(&[3, 0]), &Tensor::zeros(&[4, 0])).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        let c = matmul_tn(&Tensor::zeros(&[0, 3]), &Tensor::zeros(&[0, 4])).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
    }

    #[test]
    fn single_matrix_crossing_threshold_splits_rows() {
        // The seed kernel refused to parallelize `batch == 1`; the row
        // splitter must not. [1, 512, 512] @ [512, 512] crosses the
        // FLOP threshold with a unit batch.
        let (_, tasks) = decompose(1, 512, 512 * 512 * 512, 8);
        assert!(
            tasks.len() > 1,
            "batch == 1 product over the threshold must row-split"
        );
        assert_eq!(tasks.iter().map(|t| t.2 - t.1).sum::<usize>(), 512);
        // And the full-size product, actually routed through the split
        // (force a multi-thread cap on single-core CI hosts), agrees
        // with the reference bitwise. Flipping the global cap is safe
        // around concurrent tests: every path is thread-count-invariant.
        let a = Tensor::from_fn(&[1, 512, 512], |i| ((i[1] * 3 + i[2]) % 5) as f32 - 2.0);
        let b = Tensor::from_fn(&[512, 512], |i| ((i[0] + i[1] * 7) % 9) as f32 - 4.0);
        let before = stwa_pool::current_threads();
        stwa_pool::set_threads(4);
        let fast = matmul(&a, &b).unwrap();
        stwa_pool::set_threads(before);
        let slow = matmul_reference(&a, &b).unwrap();
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn packed_matmul_bitwise_matches_matmul_and_reference() {
        // Ragged in every blocking dimension, large enough that the
        // per-call path would take the blocked kernel.
        let (m, k, n) = (67, 301, 53);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 31 + i[1] * 7) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * 17 + i[1] * 3) % 11) as f32 - 5.0);
        let packed = PackedMatrix::pack(&b).unwrap();
        let pre = matmul_packed(&a, &packed, Epilogue::NONE).unwrap();
        assert_eq!(pre.shape(), &[m, n]);
        assert_eq!(pre.data(), matmul(&a, &b).unwrap().data());
        assert_eq!(pre.data(), matmul_reference(&a, &b).unwrap().data());
    }

    #[test]
    fn packed_matmul_small_product_matches_naive_path() {
        // Below BLOCKED_MIN_FLOPS the per-call path runs the naive
        // kernel; the packed path always runs blocked. The order
        // contract says they agree bitwise anyway.
        let (m, k, n) = (3, 5, 7);
        let a = Tensor::from_fn(&[m, k], |i| (i[0] * 5 + i[1]) as f32 * 0.37 - 1.0);
        let b = Tensor::from_fn(&[k, n], |i| (i[0] + i[1] * 3) as f32 * 0.21 - 2.0);
        let packed = PackedMatrix::pack(&b).unwrap();
        let pre = matmul_packed(&a, &packed, Epilogue::NONE).unwrap();
        assert_eq!(pre.data(), matmul(&a, &b).unwrap().data());
    }

    #[test]
    fn packed_matmul_flattens_leading_axes() {
        // [2, 3, 4, k] @ packed [k, n] == matmul with broadcast B.
        let (k, n) = (19, 9);
        let a = Tensor::from_fn(&[2, 3, 4, k], |i| {
            ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 12) as f32 - 5.5
        });
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * 2 + i[1] * 13) % 9) as f32 - 4.0);
        let packed = PackedMatrix::pack(&b).unwrap();
        let pre = matmul_packed(&a, &packed, Epilogue::NONE).unwrap();
        assert_eq!(pre.shape(), &[2, 3, 4, n]);
        assert_eq!(pre.data(), matmul(&a, &b).unwrap().data());
    }

    #[test]
    fn packed_matmul_threaded_split_matches_reference() {
        let (m, k, n) = (257, 64, 192);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 3 + i[1]) % 5) as f32 - 2.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] + i[1] * 7) % 9) as f32 - 4.0);
        let packed = PackedMatrix::pack(&b).unwrap();
        let before = stwa_pool::current_threads();
        stwa_pool::set_threads(4);
        let pre = matmul_packed(&a, &packed, Epilogue::NONE).unwrap();
        stwa_pool::set_threads(before);
        assert_eq!(pre.data(), matmul_reference(&a, &b).unwrap().data());
    }

    #[test]
    fn packed_matmul_validates_shapes() {
        assert!(PackedMatrix::pack(&Tensor::zeros(&[2, 3, 4])).is_err());
        let packed = PackedMatrix::pack(&Tensor::zeros(&[5, 4])).unwrap();
        assert_eq!((packed.k(), packed.n()), (5, 4));
        assert!(matmul_packed(&Tensor::zeros(&[3]), &packed, Epilogue::NONE).is_err());
        assert!(matmul_packed(&Tensor::zeros(&[3, 6]), &packed, Epilogue::NONE).is_err());
        // k == 0 sums over nothing -> zeros; m == 0 -> empty.
        let empty_k = PackedMatrix::pack(&Tensor::zeros(&[0, 4])).unwrap();
        let c = matmul_packed(&Tensor::zeros(&[3, 0]), &empty_k, Epilogue::NONE).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        assert!(c.data().iter().all(|&x| x == 0.0));
        let c = matmul_packed(&Tensor::zeros(&[0, 5]), &packed, Epilogue::NONE).unwrap();
        assert_eq!(c.shape(), &[0, 4]);
    }

    #[test]
    fn decompose_prefers_batch_split_when_batch_is_wide() {
        let (split, tasks) = decompose(16, 64, PARALLEL_FLOP_THRESHOLD, 4);
        assert_eq!(split, Split::Batch);
        assert_eq!(tasks.len(), 16);
        let (split, _) = decompose(16, 64, PARALLEL_FLOP_THRESHOLD - 1, 4);
        assert_eq!(split, Split::None);
        let (split, tasks) = decompose(2, 512, PARALLEL_FLOP_THRESHOLD, 4);
        assert_eq!(split, Split::Rows);
        assert!(tasks.len() >= 4);
    }

    // ---------------------------------------------------------------
    // Write mode, ISA arms, folding
    // ---------------------------------------------------------------

    /// Mixed-sign fill with enough variety to surface ordering bugs.
    fn fill(salt: usize) -> impl Fn(&[usize]) -> f32 {
        move |idx| {
            let mut h = (salt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &i in idx {
                h = (h ^ i as u64).wrapping_mul(0x100_0000_01b3);
            }
            ((h % 41) as f32 - 20.0) * 0.173
        }
    }

    /// `(m, k, n)` on both sides of every cutover: single rows, outer
    /// products, widths that are not tile multiples, one full tile,
    /// ragged bands and strips, more than one `KC` slab.
    const SHAPES: [(usize, usize, usize); 12] = [
        (1, 1, 1),
        (1, 3, 4),
        (3, 1, 4),
        (1, 16, 16),
        (2, 16, 29),
        (4, 5, 16),
        (20, 20, 16),
        (7, 300, 5),
        (33, 40, 31),
        (64, 64, 64),
        (67, 301, 53),
        (5, 520, 33),
    ];

    #[test]
    fn every_isa_arm_matches_reference_bitwise() {
        // The small shapes reach `small_nt` (NT below its cutover, both
        // its four-chain groups and its single-chain tail) and the 8-,
        // 4- and 1-wide narrow tiles (NN/TN widths that are not strip
        // multiples); the rest reach the strip tiles and the packed walk.
        isa::for_each_ceiling("linalg register tiles", |cap| {
            for &(m, k, n) in &SHAPES {
                let a = Tensor::from_fn(&[m, k], fill(1));
                let b = Tensor::from_fn(&[k, n], fill(2));
                let want = matmul_reference(&a, &b).unwrap();
                let tag = format!("{cap:?} {m}x{k}x{n}");
                assert_eq!(matmul(&a, &b).unwrap().data(), want.data(), "NN {tag}");
                let bt = b.transpose_last2().unwrap();
                assert_eq!(matmul_nt(&a, &bt).unwrap().data(), want.data(), "NT {tag}");
                let at = a.transpose_last2().unwrap();
                assert_eq!(matmul_tn(&at, &b).unwrap().data(), want.data(), "TN {tag}");
                let packed = PackedMatrix::pack(&b).unwrap();
                assert_eq!(
                    matmul_packed(&a, &packed, Epilogue::NONE).unwrap().data(),
                    want.data(),
                    "packed {tag}"
                );
                // The same contraction with `k` as the leading axis of
                // row-vector stacks: `[k, 1, m]`, `[k, 1, n]`.
                if k > 0 {
                    let (al, bl) = (
                        at.reshape(&[k, 1, m]).unwrap(),
                        b.reshape(&[k, 1, n]).unwrap(),
                    );
                    let lead = matmul_tn_sum_lead(&al, &bl).unwrap();
                    assert_eq!(lead.data(), want.data(), "sum_lead {tag}");
                }
            }
        });
    }

    /// `[-(1+2⁻¹¹), 1+2⁻¹²] · [1, 1+2⁻¹²]`: the second product is
    /// `1 + 2⁻¹¹ + 2⁻²⁴`, which rounds (ties to even) to `1 + 2⁻¹¹` —
    /// so a chain that rounds the product before adding it cancels to
    /// `0.0`, and one fused multiply-add per term leaves `2⁻²⁴`.
    fn fma_witness() -> ([f32; 2], [f32; 2]) {
        let (e11, e12) = (2f32.powi(-11), 2f32.powi(-12));
        ([-(1.0 + e11), 1.0 + e12], [1.0, 1.0 + e12])
    }

    #[test]
    fn every_contraction_fuses_each_term_on_every_arm() {
        let ([a0, a1], [b0, b1]) = fma_witness();
        let fused = 2f32.powi(-24);
        // One output, and a 128 × 128 block of the same output (past
        // every blocked cutover, so the strip tiles and the panel walk
        // run too).
        for (m, n) in [(1, 1), (128, 128)] {
            let a = Tensor::from_fn(&[m, 2], |i| [a0, a1][i[1]]);
            let b = Tensor::from_fn(&[2, n], |i| [b0, b1][i[0]]);
            let (at, bt) = (a.transpose_last2().unwrap(), b.transpose_last2().unwrap());
            let packed = PackedMatrix::pack(&b).unwrap();
            isa::for_each_ceiling("fused contraction terms", |cap| {
                let mut slice = vec![f32::NAN; m * n];
                gemm_nn_slice(a.data(), b.data(), &mut slice, m, 2, n);
                let mut packed_slice = vec![f32::NAN; m * n];
                gemm_packed_slice(a.data(), &packed, &mut packed_slice, m, Epilogue::NONE);
                for (entry, got) in [
                    ("matmul", matmul(&a, &b).unwrap().data().to_vec()),
                    ("matmul_nt", matmul_nt(&a, &bt).unwrap().data().to_vec()),
                    ("matmul_tn", matmul_tn(&at, &b).unwrap().data().to_vec()),
                    (
                        "matmul_packed",
                        matmul_packed(&a, &packed, Epilogue::NONE)
                            .unwrap()
                            .data()
                            .to_vec(),
                    ),
                    (
                        "matmul_reference",
                        matmul_reference(&a, &b).unwrap().data().to_vec(),
                    ),
                    ("gemm_nn_slice", slice),
                    ("gemm_packed_slice", packed_slice),
                ] {
                    assert!(got.iter().all(|&x| x == fused), "{entry} {cap:?} {m}x2x{n}");
                }
            });
        }
        isa::for_each_ceiling("fused contraction terms", |cap| {
            let a = Tensor::from_vec(vec![a0, a1], &[2, 1, 1]).unwrap();
            let g = Tensor::from_vec(vec![b0, b1], &[2, 1, 1]).unwrap();
            let got = matmul_tn_sum_lead(&a, &g).unwrap();
            assert_eq!(got.data(), &[fused], "matmul_tn_sum_lead {cap:?}");
            // Elementwise-then-reduce is not a contraction: it rounds.
            let unfused = a.mul(&g).unwrap().sum_axis(0, false).unwrap();
            assert_eq!(unfused.data(), &[0.0], "mul + sum_axis {cap:?}");
        });
    }

    #[test]
    fn kernels_overwrite_a_poisoned_output() {
        // Write mode: whatever the output buffer held, every element of
        // the requested rows is stored — small and blocked paths, ragged
        // edges, several `KC` slabs, `k == 0`, row sub-ranges.
        for cap in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
            isa::with_ceiling(cap, || {
                for &(m, k, n) in SHAPES.iter().chain(&[(3, 0, 5), (40, 0, 40)]) {
                    let a = Tensor::from_fn(&[m, k], fill(3));
                    let b = Tensor::from_fn(&[k, n], fill(4));
                    let want = matmul_reference(&a, &b).unwrap();
                    let at = a.transpose_last2().unwrap();
                    let bt = b.transpose_last2().unwrap();
                    let (r0, r1) = (m / 3, m);
                    let rows = &want.data()[r0 * n..r1 * n];
                    for (ak, bk, ad, bd) in [
                        (AKind::Normal, BKind::Normal, a.data(), b.data()),
                        (AKind::Normal, BKind::Transposed, a.data(), bt.data()),
                        (AKind::Transposed, BKind::Normal, at.data(), b.data()),
                    ] {
                        for blocked in [false, true] {
                            let gemm = Gemm {
                                blocked,
                                ..Gemm::new(m, k, n, ak, bk)
                            };
                            let mut c = vec![f32::NAN; (r1 - r0) * n];
                            gemm.rows(ad, bd, &mut c, r0, r1);
                            assert_eq!(c, rows, "{cap:?} {m}x{k}x{n} blocked={blocked}");
                        }
                    }
                    let packed = PackedMatrix::pack(&b).unwrap();
                    let mut c = vec![f32::NAN; (r1 - r0) * n];
                    gemm_prepacked(
                        isa::current(),
                        a.data(),
                        &packed,
                        &mut c,
                        r0,
                        r1,
                        Epilogue::NONE,
                    );
                    assert_eq!(c, rows, "{cap:?} prepacked {m}x{k}x{n}");
                    let mut c = vec![f32::NAN; m * n];
                    gemm_nn_slice(a.data(), b.data(), &mut c, m, k, n);
                    assert_eq!(c, want.data(), "{cap:?} slice {m}x{k}x{n}");
                }
            });
        }
    }

    /// Shapes on both sides of every boundary of the packed walk: row
    /// counts around the band heights and the row block, widths with an
    /// odd / even / ragged strip count, depths around one `KC` slab.
    /// Every (rows, n) and every (n, k) pair occurs; the third extent
    /// rotates so the sweep stays a unit test.
    fn walk_shapes() -> Vec<(usize, usize, usize)> {
        const ROWS: [usize; 11] = [0, 1, 3, 4, 7, 8, 9, 127, 128, 129, 300];
        const NS: [usize; 7] = [16, 17, 31, 32, 33, 48, 2048 + 5];
        const KS: [usize; 6] = [0, 1, 255, 256, 257, 600];
        let mut shapes = Vec::new();
        for (i, &m) in ROWS.iter().enumerate() {
            for (j, &n) in NS.iter().enumerate() {
                shapes.push((m, KS[(i + j) % KS.len()], n));
            }
        }
        for (j, &n) in NS.iter().enumerate() {
            for (l, &k) in KS.iter().enumerate() {
                shapes.push((ROWS[(3 * j + l) % ROWS.len()], k, n));
            }
        }
        shapes
    }

    #[test]
    fn packed_walk_matches_reference_on_every_arm_and_row_range() {
        for (m, k, n) in walk_shapes() {
            let a = Tensor::from_fn(&[m, k], fill(5));
            let b = Tensor::from_fn(&[k, n], fill(6));
            let want = matmul_reference(&a, &b).unwrap();
            let at = a.transpose_last2().unwrap();
            let packed = PackedMatrix::pack(&b).unwrap();
            for cap in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
                isa::with_ceiling(cap, || {
                    for (r0, r1) in [(0, m), (m / 3, m - m / 4)] {
                        let rows = &want.data()[r0 * n..r1 * n];
                        let tag = format!("{cap:?} {m}x{k}x{n} rows {r0}..{r1}");
                        for (view, ak, ad) in [
                            ("NN", AKind::Normal, a.data()),
                            ("TN", AKind::Transposed, at.data()),
                        ] {
                            let gemm = Gemm {
                                blocked: true,
                                ..Gemm::new(m, k, n, ak, BKind::Normal)
                            };
                            let mut c = vec![f32::NAN; (r1 - r0) * n];
                            gemm.rows(ad, b.data(), &mut c, r0, r1);
                            assert!(c == rows, "blocked {view} {tag}");
                        }
                        let mut c = vec![f32::NAN; (r1 - r0) * n];
                        gemm_prepacked(
                            isa::current(),
                            a.data(),
                            &packed,
                            &mut c,
                            r0,
                            r1,
                            Epilogue::NONE,
                        );
                        assert!(c == rows, "prepacked {tag}");
                    }
                    let mut c = vec![f32::NAN; m * n];
                    gemm_packed_slice(a.data(), &packed, &mut c, m, Epilogue::NONE);
                    assert!(c == want.data(), "packed slice {cap:?} {m}x{k}x{n}");
                    let whole = matmul_packed(&a, &packed, Epilogue::NONE).unwrap();
                    assert!(whole.data() == want.data(), "tensor entry {cap:?} {m}x{k}x{n}");
                });
            }
        }
    }

    #[test]
    fn packed_walk_is_thread_count_invariant() {
        // Row splits land on arbitrary boundaries of the band / row-block
        // structure; each task's sub-range must still produce its rows'
        // exact chains.
        let before = stwa_pool::current_threads();
        for (m, k, n) in [(129, 257, 2053), (300, 600, 48), (127, 256, 33)] {
            let a = Tensor::from_fn(&[m, k], fill(7));
            let b = Tensor::from_fn(&[k, n], fill(8));
            let want = matmul_reference(&a, &b).unwrap();
            let at = a.transpose_last2().unwrap();
            let packed = PackedMatrix::pack(&b).unwrap();
            for threads in [1, 2, 3] {
                stwa_pool::set_threads(threads);
                let tag = format!("{m}x{k}x{n} @ {threads} threads");
                assert!(matmul(&a, &b).unwrap().data() == want.data(), "NN {tag}");
                assert!(
                    matmul_tn(&at, &b).unwrap().data() == want.data(),
                    "TN {tag}"
                );
                assert!(
                    matmul_packed(&a, &packed, Epilogue::NONE).unwrap().data() == want.data(),
                    "packed {tag}"
                );
            }
        }
        stwa_pool::set_threads(before);
    }

    /// `want` with `bias` added per column, then `max(x, 0)` when `relu`
    /// — the scalar chain of a dense layer's `bias_add_act`.
    fn bias_then_relu(want: &[f32], bias: &[f32], relu: bool) -> Vec<f32> {
        let mut out = want.to_vec();
        for row in out.chunks_exact_mut(bias.len().max(1)) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
                if relu {
                    *v = v.max(0.0);
                }
            }
        }
        out
    }

    #[test]
    fn packed_epilogue_is_the_bias_add_then_relu_on_every_arm() {
        // Ragged strips (n of 5, 17, 33), a lone full strip and a pair,
        // one and two `KC` slabs, `k = 0`, and row counts on both sides
        // of every band height. Row 0's chains underflow to `-0.0` in
        // column 0, whose bias is `-0.0`, so the ReLU meets a negative
        // zero; column 1's bias is NaN.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        isa::for_each_ceiling("packed epilogue", |cap| {
            for m in [0, 1, 7, 9, 13] {
                for n in [5, 16, 17, 33, 48] {
                    for k in [0, 1, 256, 257] {
                        let mut a = Tensor::from_fn(&[m, k], fill(11));
                        let mut b = Tensor::from_fn(&[k, n], fill(12));
                        if m > 0 {
                            a.data_mut()[..k].fill(1e-30);
                            for p in 0..k {
                                b.data_mut()[p * n] = -1e-30;
                            }
                        }
                        let mut bias = Tensor::from_fn(&[n], fill(13)).into_vec();
                        bias[0] = -0.0;
                        bias[1] = f32::NAN;
                        let plain = matmul_reference(&a, &b).unwrap();
                        let packed = PackedMatrix::pack(&b).unwrap();
                        for relu in [false, true] {
                            let want = bias_then_relu(plain.data(), &bias, relu);
                            let ep = Epilogue {
                                bias: Some(&bias),
                                relu,
                            };
                            let tag = format!("{cap:?} {m}x{k}x{n} relu={relu}");
                            let whole = matmul_packed(&a, &packed, ep).unwrap();
                            assert_eq!(bits(whole.data()), bits(&want), "tensor entry {tag}");
                            let mut c = vec![f32::NAN; m * n];
                            gemm_packed_slice(a.data(), &packed, &mut c, m, ep);
                            assert_eq!(bits(&c), bits(&want), "packed slice {tag}");
                            let (r0, r1) = (m / 3, m);
                            let mut c = vec![f32::NAN; (r1 - r0) * n];
                            gemm_prepacked(isa::current(), a.data(), &packed, &mut c, r0, r1, ep);
                            assert_eq!(bits(&c), bits(&want[r0 * n..]), "rows {r0}..{r1} {tag}");
                            let relu_only = Epilogue { bias: None, relu };
                            let want = bias_then_relu(plain.data(), &vec![0.0; n], relu);
                            let got = matmul_packed(&a, &packed, relu_only).unwrap();
                            if relu {
                                assert_eq!(bits(got.data()), bits(&want), "relu only {tag}");
                            } else {
                                assert_eq!(bits(got.data()), bits(plain.data()), "none {tag}");
                            }
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn pack_scratch_only_grows_and_is_never_read_stale() {
        // `pack_b` writes every lane a pass reads, so the per-thread
        // panel needs neither truncation nor zero fill between products:
        // poison it, alternate wide / narrow / ragged / multi-slab
        // products, and hold each to the reference.
        let mut high_water = 0;
        for (m, k, n) in [
            (20, 300, 2048),
            (20, 300, 16),
            (20, 40, 53),
            (9, 257, 2053),
            (64, 64, 17),
            (20, 300, 2048),
        ] {
            PACK_B.with(|buf| buf.borrow_mut().fill(f32::NAN));
            let a = Tensor::from_fn(&[m, k], fill(9));
            let b = Tensor::from_fn(&[k, n], fill(10));
            let want = matmul_reference(&a, &b).unwrap();
            let bt = b.transpose_last2().unwrap();
            for (bk, bd) in [(BKind::Normal, b.data()), (BKind::Transposed, bt.data())] {
                let gemm = Gemm {
                    blocked: true,
                    ..Gemm::new(m, k, n, AKind::Normal, bk)
                };
                let mut c = vec![f32::NAN; m * n];
                gemm.rows(a.data(), bd, &mut c, 0, m);
                assert!(c == want.data(), "{m}x{k}x{n} on a poisoned panel");
            }
            let len = PACK_B.with(|buf| buf.borrow().len());
            assert!(len >= high_water, "panel shrank from {high_water} to {len}");
            high_water = len;
        }
    }

    #[test]
    fn packed_panels_hold_their_real_depth_across_slab_boundaries() {
        // Each slab is packed exactly as deep as it is, so the panels are
        // B plus the ragged strip's zero lanes and nothing else, and a
        // walk that strides strips by `kc·NR` still runs every element's
        // chain in order — depths below, at and past one `KC` slab,
        // ragged widths with zero, an even and an odd full-strip count.
        const KS: [usize; 8] = [1, 32, 128, 255, 256, 257, 301, 515];
        const NS: [usize; 3] = [7, 33, 53];
        const ROWS: [usize; 4] = [1, 48, 67, 130];
        let mut cases = Vec::new();
        for &k in &KS {
            for &n in &NS {
                let b = Tensor::from_fn(&[k, n], fill(11));
                let packed = PackedMatrix::pack(&b).unwrap();
                assert_eq!(packed.packed_bytes(), 4 * k * n.div_ceil(16) * 16, "{k}x{n}");
                let products: Vec<_> = ROWS
                    .iter()
                    .map(|&m| {
                        let a = Tensor::from_fn(&[m, k], fill(12));
                        let want = matmul_reference(&a, &b).unwrap();
                        (a, want)
                    })
                    .collect();
                cases.push((packed, products));
            }
        }
        isa::for_each_ceiling("packed panels at their real depth", |cap| {
            for (packed, products) in &cases {
                for (a, want) in products {
                    let (m, k, n) = (a.shape()[0], packed.k(), packed.n());
                    let tag = format!("{cap:?} {m}x{k}x{n}");
                    let mut c = vec![f32::NAN; m * n];
                    gemm_packed_slice(a.data(), packed, &mut c, m, Epilogue::NONE);
                    assert!(c == want.data(), "gemm_packed_slice {tag}");
                    let whole = matmul_packed(a, packed, Epilogue::NONE).unwrap();
                    assert!(whole.data() == want.data(), "matmul_packed {tag}");
                }
            }
        });
    }

    #[test]
    fn plan_folds_trailing_axes_the_right_operand_does_not_vary_over() {
        let plan = |a: &[usize], b: &[usize], ak| {
            Plan::build(
                &Tensor::zeros(a),
                &Tensor::zeros(b),
                ak,
                BKind::Normal,
                "matmul",
                true,
            )
            .unwrap()
        };
        // One shared weight: the whole batch becomes rows.
        let p = plan(&[32, 20, 1, 16], &[16, 16], AKind::Normal);
        assert_eq!((p.batch, p.m, p.k, p.n, p.folded), (1, 640, 16, 16, true));
        assert_eq!(p.out_shape, vec![32, 20, 1, 16]);
        // Shared over the innermost batch axis only.
        let p = plan(&[32, 20, 2, 2, 16], &[32, 20, 1, 16, 16], AKind::Normal);
        assert_eq!((p.batch, p.m, p.folded), (640, 4, true));
        assert!(matches!(p.a_offsets, Offsets::Strided(64)));
        assert!(matches!(p.b_offsets, Offsets::Strided(256)));
        // B varies over the innermost axis, or A is broadcast there, or A
        // is transposed: rows of different batches are not adjacent.
        assert!(!plan(&[4, 3, 2, 5], &[4, 3, 5, 6], AKind::Normal).folded);
        assert!(!plan(&[4, 1, 2, 5], &[3, 5, 6], AKind::Normal).folded);
        assert!(!plan(&[4, 3, 5, 2], &[5, 6], AKind::Transposed).folded);
        // The reference never folds.
        let a = Tensor::zeros(&[4, 3, 2, 5]);
        let b = Tensor::zeros(&[5, 6]);
        let p = Plan::build(&a, &b, AKind::Normal, BKind::Normal, "matmul", false).unwrap();
        assert_eq!((p.batch, p.m, p.folded), (12, 2, false));
    }

    #[test]
    fn tn_sum_lead_validates_shapes() {
        let ok = matmul_tn_sum_lead(&Tensor::zeros(&[3, 2, 1, 4]), &Tensor::zeros(&[3, 2, 1, 5]))
            .unwrap();
        assert_eq!(ok.shape(), &[2, 4, 5]);
        assert!(ok.data().iter().all(|&x| x == 0.0));
        // Not row vectors, mismatched leads, rank too small, empty axis 0.
        assert!(
            matmul_tn_sum_lead(&Tensor::zeros(&[3, 2, 4]), &Tensor::zeros(&[3, 2, 5])).is_err()
        );
        assert!(
            matmul_tn_sum_lead(&Tensor::zeros(&[3, 1, 4]), &Tensor::zeros(&[2, 1, 5])).is_err()
        );
        assert!(matmul_tn_sum_lead(&Tensor::zeros(&[1, 4]), &Tensor::zeros(&[1, 5])).is_err());
        assert!(
            matmul_tn_sum_lead(&Tensor::zeros(&[0, 1, 4]), &Tensor::zeros(&[0, 1, 5])).is_err()
        );
    }
}
