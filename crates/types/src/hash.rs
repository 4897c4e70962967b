//! The folded-XOR hash family used to index predictor history tables.
//!
//! Section V-A of the paper: *"The hash is computed by dividing the PC into
//! subblocks and XOR-ing them."* The same construction is used for VPNs
//! (pHIST's second dimension) and for block addresses (bHIST's 12-bit
//! index). [`fold_xor`] implements it for any output width.

use crate::{BlockAddr, Pc, Vpn};

/// Folds `value` into `bits` bits by XOR-ing consecutive `bits`-wide
/// subblocks together, exactly as the paper's hardware hash does.
///
/// Returns a value in `0..(1 << bits)`.
///
/// ```
/// use dpc_types::hash::fold_xor;
/// assert_eq!(fold_xor(0xABCD, 4), 0xA ^ 0xB ^ 0xC ^ 0xD);
/// assert_eq!(fold_xor(0x12, 4), 0x3);
/// ```
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 32 (predictor indices are small).
#[inline]
pub fn fold_xor(value: u64, bits: u32) -> u32 {
    assert!(bits > 0 && bits <= 32, "fold_xor output width must be 1..=32 bits");
    let mask = (1u64 << bits) - 1;
    let mut v = value;
    let mut acc = 0u64;
    while v != 0 {
        acc ^= v & mask;
        v >>= bits;
    }
    acc as u32
}

/// Hash of a program counter into `bits` bits.
///
/// Instruction addresses on x86-64 have no alignment guarantee, so the PC is
/// folded as-is.
#[inline]
pub fn hash_pc(pc: Pc, bits: u32) -> u32 {
    fold_xor(pc.raw(), bits)
}

/// Hash of a virtual page number into `bits` bits.
#[inline]
pub fn hash_vpn(vpn: Vpn, bits: u32) -> u32 {
    fold_xor(vpn.raw(), bits)
}

/// Hash of a physical block address into `bits` bits (bHIST uses 12).
#[inline]
pub fn hash_block(block: BlockAddr, bits: u32) -> u32 {
    fold_xor(block.raw(), bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fold_known_values() {
        assert_eq!(fold_xor(0, 6), 0);
        assert_eq!(fold_xor(0b111111, 6), 0b111111);
        // two identical subblocks cancel
        assert_eq!(fold_xor(0b101010_101010, 6), 0);
        assert_eq!(fold_xor(0xABCD, 4), 0xA ^ 0xB ^ 0xC ^ 0xD);
    }

    #[test]
    fn fold_uses_all_input_bits() {
        // Flipping any single input bit must change the output (XOR fold is
        // linear, so each input bit maps to exactly one output bit).
        let base = fold_xor(0x0123_4567_89AB_CDEF, 10);
        for bit in 0..64 {
            let flipped = fold_xor(0x0123_4567_89AB_CDEF ^ (1 << bit), 10);
            assert_ne!(base, flipped, "input bit {bit} had no effect");
        }
    }

    #[test]
    #[should_panic(expected = "fold_xor")]
    fn zero_width_rejected() {
        fold_xor(1, 0);
    }

    #[test]
    #[should_panic(expected = "fold_xor")]
    fn oversize_width_rejected() {
        fold_xor(1, 33);
    }

    proptest! {
        #[test]
        fn output_in_range(value in any::<u64>(), bits in 1u32..=32) {
            let h = fold_xor(value, bits);
            prop_assert!(u64::from(h) < (1u64 << bits));
        }

        #[test]
        fn deterministic(value in any::<u64>(), bits in 1u32..=32) {
            prop_assert_eq!(fold_xor(value, bits), fold_xor(value, bits));
        }

        #[test]
        fn xor_homomorphism(a in any::<u64>(), b in any::<u64>(), bits in 1u32..=32) {
            // fold(a ^ b) == fold(a) ^ fold(b): the defining property of a
            // linear fold, which guarantees full input-bit coverage.
            prop_assert_eq!(fold_xor(a ^ b, bits), fold_xor(a, bits) ^ fold_xor(b, bits));
        }
    }
}
