//! The fixed vocabulary shared by every model in the reproduction.
//!
//! Layout (stable across runs — tables are compile-time constants):
//!
//! | range | contents |
//! |---|---|
//! | 0..4  | `PAD`, `UNK`, `BOS`, `EOS` |
//! | 4..14 | digit tokens `0`–`9` |
//! | then  | punctuation, keywords, intrinsic & hardware words |
//! | then  | `ident_buckets` hashed identifier buckets |
//! | then  | `number_buckets` hashed whole-number buckets (baseline only) |

use serde::{Deserialize, Serialize};

/// Padding token id.
pub const PAD: u32 = 0;
/// Unknown-token id.
pub const UNK: u32 = 1;
/// Beginning-of-sequence id.
pub const BOS: u32 = 2;
/// End-of-sequence id.
pub const EOS: u32 = 3;
/// First digit token id (digit `d` is `DIGIT_BASE + d`).
pub const DIGIT_BASE: u32 = 4;

/// Punctuation recognized by the lexer, longest first.
pub const PUNCT: &[&str] = &[
    "<=", ">=", "==", "!=", "&&", "||", "+=", "(", ")", "{", "}", "[", "]", ";", ",", "=", "+",
    "-", "*", "/", "%", "<", ">", "!", "#", ".", ":",
];

/// Keywords and reserved words (language + pragmas + hardware keys + tags).
pub const KEYWORDS: &[&str] = &[
    "void",
    "int",
    "float",
    "for",
    "if",
    "else",
    "pragma",
    "clang",
    "loop",
    "unroll",
    "unroll_count",
    "omp",
    "parallel",
    "full",
    "exp",
    "sqrt",
    "fabs",
    "relu",
    "sigmoid",
    "tanh",
    "log",
    "max",
    "min",
    "tensor",
    "think",
    "/think",
    "Mem-Read-delay",
    "Mem-Write-delay",
    "Parallel-lanes",
    "Clock-period-ns",
    "Number",
    "of",
    "modules",
    "instantiated",
    "performance",
    "conflicts",
    "Estimated",
    "resources",
    "area",
    "MUX21",
    "allocated",
    "multiplexers",
];

/// Vocabulary geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vocab {
    ident_buckets: u32,
    number_buckets: u32,
}

impl Vocab {
    /// Standard vocabulary (64 identifier buckets, 32 number buckets).
    pub fn new() -> Vocab {
        Vocab {
            ident_buckets: 64,
            number_buckets: 32,
        }
    }

    /// Token id of a digit (0–9).
    ///
    /// # Panics
    ///
    /// Panics when `d > 9`.
    pub fn digit(&self, d: u8) -> u32 {
        assert!(d <= 9, "digit out of range");
        DIGIT_BASE + d as u32
    }

    fn punct_base(&self) -> u32 {
        DIGIT_BASE + 10
    }

    fn keyword_base(&self) -> u32 {
        self.punct_base() + PUNCT.len() as u32
    }

    fn ident_base(&self) -> u32 {
        self.keyword_base() + KEYWORDS.len() as u32
    }

    fn number_base(&self) -> u32 {
        self.ident_base() + self.ident_buckets
    }

    /// Total vocabulary size.
    pub fn size(&self) -> usize {
        (self.number_base() + self.number_buckets) as usize
    }

    /// Id for a punctuation string, if recognized.
    pub fn punct(&self, p: &str) -> Option<u32> {
        PUNCT
            .iter()
            .position(|&q| q == p)
            .map(|i| self.punct_base() + i as u32)
    }

    /// Id for a keyword, if recognized.
    pub fn keyword(&self, w: &str) -> Option<u32> {
        KEYWORDS
            .iter()
            .position(|&q| q == w)
            .map(|i| self.keyword_base() + i as u32)
    }

    /// Id for an identifier (hashed into a bucket).
    pub fn ident(&self, name: &str) -> u32 {
        self.ident_base() + fnv1a(name) % self.ident_buckets
    }

    /// Id for a whole number string (baseline tokenizer only): hashing whole
    /// numerals reproduces the "semantic distortion" of conventional
    /// tokenizers that the paper's progressive encoding removes.
    pub fn whole_number(&self, lit: &str) -> u32 {
        self.number_base() + fnv1a(lit) % self.number_buckets
    }

    /// True if `id` is one of the ten digit tokens.
    pub fn is_digit(&self, id: u32) -> bool {
        (DIGIT_BASE..DIGIT_BASE + 10).contains(&id)
    }
}

impl Default for Vocab {
    fn default() -> Self {
        Vocab::new()
    }
}

fn fnv1a(s: &str) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for b in s.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_do_not_overlap() {
        let v = Vocab::new();
        let digit_hi = v.digit(9);
        let punct_lo = v.punct("(").expect("known punct");
        let kw_lo = v.keyword("void").expect("known keyword");
        let id_a = v.ident("a");
        let num = v.whole_number("100");
        assert!(digit_hi < punct_lo);
        assert!(punct_lo < kw_lo);
        assert!(kw_lo < id_a);
        assert!(id_a < num);
        assert!((num as usize) < v.size());
    }

    #[test]
    fn digits_are_contiguous() {
        let v = Vocab::new();
        for d in 0..=9u8 {
            assert_eq!(v.digit(d), DIGIT_BASE + d as u32);
            assert!(v.is_digit(v.digit(d)));
        }
        assert!(!v.is_digit(PAD));
    }

    #[test]
    fn identifier_hashing_is_stable() {
        let v = Vocab::new();
        assert_eq!(v.ident("gemm"), v.ident("gemm"));
    }

    #[test]
    fn all_punct_and_keywords_resolve() {
        let v = Vocab::new();
        for p in PUNCT {
            assert!(v.punct(p).is_some(), "{p}");
        }
        for k in KEYWORDS {
            assert!(v.keyword(k).is_some(), "{k}");
        }
        assert!(v.punct("@").is_none());
        assert!(v.keyword("while").is_none());
    }

    #[test]
    #[should_panic(expected = "digit out of range")]
    fn digit_bounds_checked() {
        let _ = Vocab::new().digit(10);
    }
}
