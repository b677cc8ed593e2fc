//! GF(2^8) field arithmetic over the reduction polynomial `0x11d`, the
//! primitive polynomial Reed-Solomon codes commonly use (AES reduces by
//! `0x11b`, in which `0x02` is not a generator).
//!
//! The field is represented through compile-time log/antilog tables built
//! from the generator `x = 0x02` (a primitive element modulo `0x11d`).
//! Multiplication and division are two table lookups plus an index add,
//! which is what keeps the Reed-Solomon inner loops branch-light.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub, SubAssign};

/// The reduction polynomial: `x^8 + x^4 + x^3 + x^2 + 1`.
const POLY: u16 = 0x11d;

/// Multiplicative order of the field's unit group.
const ORDER: usize = 255;

const fn build_tables() -> ([u8; 256], [u8; 512]) {
    let mut log = [0u8; 256];
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < ORDER {
        exp[i] = x as u8;
        exp[i + ORDER] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Slots 510/511 are never indexed (log a + log b <= 508) but keeping
    // them equal to exp[0]/exp[1] makes the table total rather than UB-ish.
    exp[2 * ORDER] = exp[0];
    exp[2 * ORDER + 1] = exp[1];
    (log, exp)
}

const TABLES: ([u8; 256], [u8; 512]) = build_tables();

/// `LOG[a]` = discrete log of `a` base `0x02` (undefined at 0, stored as 0).
const LOG: [u8; 256] = TABLES.0;

/// `EXP[i]` = `0x02^i`, doubled in length so `EXP[log a + log b]` needs no
/// modular reduction.
const EXP: [u8; 512] = TABLES.1;

/// An element of GF(2^8): a thin newtype over the byte representation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// Additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// Multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Raw byte multiplication, the hot-loop primitive.
    #[inline]
    fn mul_bytes(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
        }
    }

    /// Multiplicative inverse. Panics on zero, which has none.
    #[inline]
    pub fn inv(self) -> Gf256 {
        assert!(self.0 != 0, "Gf256: zero has no multiplicative inverse");
        if self.0 == 1 {
            return Gf256(1);
        }
        Gf256(EXP[ORDER - LOG[self.0 as usize] as usize])
    }

    /// Exponentiation by a non-negative integer power.
    pub fn pow(self, mut e: u32) -> Gf256 {
        if e == 0 {
            return Gf256::ONE;
        }
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        e %= ORDER as u32;
        if e == 0 {
            return Gf256::ONE;
        }
        let idx = (LOG[self.0 as usize] as u64 * e as u64) % ORDER as u64;
        Gf256(EXP[idx as usize])
    }

    /// Whether this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl From<u8> for Gf256 {
    fn from(b: u8) -> Self {
        Gf256(b)
    }
}

impl From<Gf256> for u8 {
    fn from(g: Gf256) -> Self {
        g.0
    }
}

// In characteristic 2, addition and subtraction genuinely ARE xor — the
// "suspicious arithmetic" lints don't apply to finite-field operators.
impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction IS addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256(Gf256::mul_bytes(self.0, rhs.0))
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        self.0 = Gf256::mul_bytes(self.0, rhs.0);
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inv()
    }
}

/// `dst[i] ^= c * src[i]` over the whole slice: the axpy kernel both the
/// encoder and the decoder's back-substitution reduce to.
#[inline]
pub fn mul_slice_add(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    if c == 0 {
        return;
    }
    if c == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
        return;
    }
    let log_c = LOG[c as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= EXP[log_c + LOG[*s as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        // exp is a bijection from 0..255 onto the nonzero bytes, and log
        // inverts it.
        let mut seen = [false; 256];
        for i in 0..ORDER {
            let v = EXP[i];
            assert_ne!(v, 0);
            assert!(!seen[v as usize], "exp repeats at {i}");
            seen[v as usize] = true;
            assert_eq!(LOG[v as usize] as usize, i);
            assert_eq!(EXP[i + ORDER], v);
        }
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Bit-by-bit reference multiply against the table implementation,
        // exhaustively over all 65536 pairs.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut acc: u8 = 0;
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (POLY & 0xff) as u8;
                }
                b >>= 1;
            }
            acc
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(Gf256::mul_bytes(a, b), slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn inverses_and_identities() {
        for a in 1..=255u8 {
            let x = Gf256(a);
            assert_eq!(x * x.inv(), Gf256::ONE, "inv of {a}");
            assert_eq!(x * Gf256::ONE, x);
            assert_eq!(x + Gf256::ZERO, x);
            assert_eq!(x + x, Gf256::ZERO);
        }
    }

    #[test]
    fn pow_is_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 29, 142, 255] {
            let x = Gf256(a);
            let mut acc = Gf256::ONE;
            for e in 0..20u32 {
                assert_eq!(x.pow(e), acc, "{a}^{e}");
                acc *= x;
            }
        }
    }

    #[test]
    fn slice_kernels_match_scalar_ops() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 77, 255] {
            let mut dst: Vec<u8> = (0..=255u8).rev().collect();
            let expect: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(d, s)| (Gf256(*d) + Gf256(c) * Gf256(*s)).0)
                .collect();
            mul_slice_add(c, &src, &mut dst);
            assert_eq!(dst, expect, "mul_slice_add c={c}");
        }
    }
}
