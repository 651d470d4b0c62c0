//! Flush-to-zero arithmetic for the emulated pipelines.
//!
//! The MDGRAPE-2 arithmetic units have no gradual-underflow path: a
//! product whose magnitude falls below the smallest normal number is
//! flushed to zero by the silicon. The host CPU, by contrast, handles
//! subnormal `f32` values in microcode — and because the cell-index
//! method streams **every** j in the 27-cell block with no cutoff skip
//! (§2.2), far pairs constantly produce tiny `g` and `b·g·r⃗` products
//! that land in the subnormal range. Measured on the development
//! machine, those floating-point assists inflate the per-pair cost more
//! than an order of magnitude (~47 ns vs ~1.9 ns for the accumulation
//! sweep alone).
//!
//! [`FtzGuard`] therefore sets the x86 MXCSR FTZ (flush-to-zero, bit
//! 15) and DAZ (denormals-are-zero, bit 6) flags for the duration of a
//! board call and restores the caller's control word on drop. This is
//! the *hardware-faithful* choice, not an approximation trade-off — the
//! special-purpose chip never produced subnormals in the first place.
//! Every board entry point (batched, per-pair reference, N3L fast path)
//! runs under the same guard, so the bitwise-equivalence contracts
//! between those paths are unaffected: they see identical arithmetic.
//!
//! On non-x86_64 targets the guard is a no-op; results there may differ
//! from the flushed ones in the last bits of far-pair contributions
//! (all far below the f32 force resolution).

/// RAII guard: flush-to-zero + denormals-are-zero while alive.
///
/// Construct one at the top of a pipeline dispatch; the previous MXCSR
/// state is restored when it drops, so user code outside the emulator
/// keeps IEEE gradual underflow.
#[derive(Debug)]
pub struct FtzGuard {
    #[cfg(target_arch = "x86_64")]
    saved_csr: u32,
}

/// MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6).
#[cfg(target_arch = "x86_64")]
const FTZ_DAZ_BITS: u32 = (1 << 15) | (1 << 6);

impl FtzGuard {
    /// Enable FTZ + DAZ, remembering the current control word.
    #[inline]
    pub fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let mut csr: u32 = 0;
            // SAFETY: stmxcsr/ldmxcsr only read/write the SSE control
            // register; the pointer is a valid, aligned u32.
            unsafe {
                std::arch::asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack));
                let set = csr | FTZ_DAZ_BITS;
                std::arch::asm!("ldmxcsr [{}]", in(reg) &set, options(nostack));
            }
            Self { saved_csr: csr }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Self {}
    }
}

/// Whether FTZ or DAZ is set in this thread's MXCSR.
#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) fn flushing() -> bool {
    let mut csr: u32 = 0;
    // SAFETY: stmxcsr only reads the SSE control register into a valid,
    // aligned u32.
    unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack)) };
    csr & FTZ_DAZ_BITS != 0
}

impl Default for FtzGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for FtzGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: restores the exact control word captured in `new`.
        unsafe {
            std::arch::asm!("ldmxcsr [{}]", in(reg) &self.saved_csr, options(nostack));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn guard_flushes_subnormals_and_restores() {
        let tiny = f32::from_bits(1); // smallest subnormal
        let before = black_box(tiny) * 0.5;
        {
            let _g = FtzGuard::new();
            let inside = black_box(tiny) * 0.5;
            #[cfg(target_arch = "x86_64")]
            assert_eq!(inside, 0.0, "FTZ should flush the subnormal product");
            #[cfg(not(target_arch = "x86_64"))]
            let _ = inside;
        }
        let after = black_box(tiny) * 0.5;
        assert_eq!(before.to_bits(), after.to_bits(), "MXCSR must be restored");
    }

    #[test]
    fn nested_guards_restore_in_order() {
        let tiny = f32::from_bits(1);
        let _outer = FtzGuard::new();
        {
            let _inner = FtzGuard::new();
        }
        // Outer guard still active after inner drops.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(black_box(tiny) * 0.5, 0.0);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tiny;
    }
}
