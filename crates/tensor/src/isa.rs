//! The one place the CPU is asked what it can run.
//!
//! Every runtime-dispatched kernel in the workspace — the f32 register
//! tiles in [`crate::linalg`], the int8 tiles and the row quantizer in
//! [`crate::quant`], the wide transcendentals in [`crate::mathfn`] —
//! picks its arm from [`current`]. The tiers are ordered, each implying
//! the ones below it, so a kernel asks `current() >= Isa::Avx2` rather
//! than probing features of its own. Every arm of every kernel produces
//! the same bits (that is each kernel's contract, and what the forced
//! sweeps in the unit tests hold them to), so the tier only ever
//! changes speed.

use std::sync::OnceLock;

/// A dispatch tier; `Scalar < Avx2 < Avx512 < Avx512Vnni`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Isa {
    /// Portable Rust; the only tier off x86-64. Contractions still fuse
    /// each term — through `f32::mul_add`, a correctly rounded libm call.
    Scalar,
    /// AVX2 with FMA: every contraction kernel above this tier runs
    /// `vfmadd`.
    Avx2,
    /// AVX-512F (and AVX2: the int8 dispatch routes this tier to the
    /// `vpmaddubsw` tile, and every shipping AVX-512 part has AVX2, but
    /// the safety argument should not rest on that).
    Avx512,
    /// AVX-512F with VNNI (`vpdpbusd`).
    Avx512Vnni,
}

impl Isa {
    /// Every tier, ascending — what a forced sweep iterates.
    #[cfg(test)]
    const ALL: [Isa; 4] = [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Avx512Vnni];

    /// The label `BENCH_*.json` headers carry.
    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Avx512Vnni => "avx512-vnni",
        }
    }
}

/// The widest tier the CPU supports, detected once per process.
pub fn detected() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            let avx512 = avx2 && std::arch::is_x86_feature_detected!("avx512f");
            if avx512 && std::arch::is_x86_feature_detected!("avx512vnni") {
                return Isa::Avx512Vnni;
            }
            if avx512 {
                return Isa::Avx512;
            }
            if avx2 {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// The tier kernels dispatch on: [`detected`], which unit tests may
/// lower (never raise) through [`with_ceiling`].
pub fn current() -> Isa {
    #[cfg(test)]
    {
        detected().min(ceiling::get())
    }
    #[cfg(not(test))]
    {
        detected()
    }
}

#[cfg(test)]
mod ceiling {
    use super::Isa;
    use std::sync::atomic::{AtomicU8, Ordering};

    static CEILING: AtomicU8 = AtomicU8::new(Isa::Avx512Vnni as u8);

    pub(super) fn get() -> Isa {
        Isa::ALL[CEILING.load(Ordering::Relaxed) as usize]
    }

    pub(super) fn set(cap: Isa) {
        CEILING.store(cap as u8, Ordering::Relaxed);
    }
}

/// Run `f` with [`current`] capped at `cap`, so the narrower arms are
/// exercised (and held to the same bits) on wide hosts. The ceiling is
/// process-global; capping tests serialize here, and tests that run
/// alongside see a different arm with identical bits.
#[cfg(test)]
pub(crate) fn with_ceiling<T>(cap: Isa, f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            ceiling::set(Isa::Avx512Vnni);
        }
    }
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore;
    ceiling::set(cap);
    f()
}

/// Run `f` once under every ceiling the host can honour, narrowest
/// first, and print the tiers it could not reach — a green run on a
/// narrow host must say which arms it never executed.
#[cfg(test)]
pub(crate) fn for_each_ceiling(what: &str, mut f: impl FnMut(Isa)) {
    let mut skipped = Vec::new();
    for cap in Isa::ALL {
        if cap > detected() {
            skipped.push(cap.label());
            continue;
        }
        with_ceiling(cap, || {
            assert_eq!(current(), cap);
            f(cap)
        });
    }
    if !skipped.is_empty() {
        println!(
            "{what}: host tops out at {}; arms not run: {skipped:?}",
            detected().label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_ordered_and_the_ceiling_only_lowers() {
        assert!(
            Isa::Scalar < Isa::Avx2 && Isa::Avx2 < Isa::Avx512 && Isa::Avx512 < Isa::Avx512Vnni
        );
        with_ceiling(Isa::Scalar, || assert_eq!(current(), Isa::Scalar));
        with_ceiling(Isa::Avx512Vnni, || assert_eq!(current(), detected()));
    }
}
