//! The progressive program tokenizer (paper Sec. 4.1) and the whole-number
//! baseline used by the `NoEnc` ablation.

use crate::segment::{Segment, SegmentKind, TokenizedProgram};
use crate::vocab::Vocab;
use serde::{Deserialize, Serialize};

/// How numeric literals are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NumericMode {
    /// Progressive encoding: symbol isolation + one token per digit, so a
    /// numeral of length `n` becomes `n` digit tokens (`length_n → n`
    /// tokens), preserving numeric semantics.
    Digits,
    /// Baseline encoding: the whole numeral hashes to one opaque token,
    /// reproducing the irregular-split/semantic-loss behaviour of
    /// conventional tokenizers (the paper's `NoEnc` ablation).
    Whole,
}

/// A tokenizer over the fixed [`Vocab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tokenizer {
    vocab: Vocab,
    mode: NumericMode,
}

impl Tokenizer {
    /// The paper's progressive tokenizer.
    pub fn progressive() -> Tokenizer {
        Tokenizer {
            vocab: Vocab::new(),
            mode: NumericMode::Digits,
        }
    }

    /// The `NoEnc` baseline tokenizer.
    pub fn baseline() -> Tokenizer {
        Tokenizer {
            vocab: Vocab::new(),
            mode: NumericMode::Whole,
        }
    }

    /// Tokenizer with an explicit mode.
    pub fn with_mode(mode: NumericMode) -> Tokenizer {
        Tokenizer {
            vocab: Vocab::new(),
            mode,
        }
    }

    /// The vocabulary geometry.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The numeric mode.
    pub fn mode(&self) -> NumericMode {
        self.mode
    }

    /// Vocabulary size (for model embedding tables).
    pub fn vocab_size(&self) -> usize {
        self.vocab.size()
    }

    /// Symbol-isolation phase: inserts protective spaces around numerals so
    /// signs and digits encode independently (`"-128"` → `"- 128"`, and in
    /// digit mode `128` further splits into `1 2 8`).
    pub fn isolate_symbols(&self, text: &str) -> String {
        let mut out = String::with_capacity(text.len() * 2);
        let mut prev_was_digit = false;
        for ch in text.chars() {
            let is_digit = ch.is_ascii_digit();
            if is_digit != prev_was_digit {
                // Entering or leaving a numeral: protective half-space.
                if !out.ends_with(' ') && !out.is_empty() {
                    out.push(' ');
                }
            }
            out.push(ch);
            prev_was_digit = is_digit;
        }
        out
    }

    /// Encodes raw text into token ids.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::with_capacity(text.len() / 2);
        self.encode_into(text, &mut out);
        out
    }

    fn encode_into(&self, text: &str, out: &mut Vec<u32>) {
        // Char-boundary-aware lexing: arbitrary (non-ASCII) input must never
        // split a multi-byte character.
        let chars: Vec<(usize, char)> = text.char_indices().collect();
        let n = chars.len();
        let byte_at = |idx: usize| -> usize {
            if idx < n {
                chars[idx].0
            } else {
                text.len()
            }
        };
        let mut i = 0;
        'outer: while i < n {
            let (pos, c) = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            // Numerals.
            if c.is_ascii_digit() {
                let start = i;
                while i < n && chars[i].1.is_ascii_digit() {
                    i += 1;
                }
                match self.mode {
                    NumericMode::Digits => {
                        for &(_, d) in &chars[start..i] {
                            out.push(self.vocab.digit(d as u8 - b'0'));
                        }
                    }
                    NumericMode::Whole => out.push(self.vocab.whole_number(&text[pos..byte_at(i)])),
                }
                continue;
            }
            // Words (identifiers / keywords; dashed hardware keys allowed).
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < n {
                    let ch = chars[i].1;
                    if ch.is_ascii_alphanumeric() || ch == '_' || ch == '-' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                // Trim trailing dashes (e.g. `a-` splits into ident + punct).
                let mut end = i;
                while end > start && chars[end - 1].1 == '-' {
                    end -= 1;
                }
                i = end.max(start + 1);
                let word = &text[pos..byte_at(end.max(start + 1))];
                match self.vocab.keyword(word) {
                    Some(id) => out.push(id),
                    None => out.push(self.vocab.ident(word)),
                }
                continue;
            }
            // Punctuation (ASCII-only table), longest match first.
            for p in crate::vocab::PUNCT {
                if text[pos..].starts_with(p) {
                    out.push(self.vocab.punct(p).unwrap_or(crate::vocab::UNK));
                    i += p.len(); // ASCII: byte length == char count
                    continue 'outer;
                }
            }
            // Unknown character (possibly multi-byte).
            out.push(crate::vocab::UNK);
            i += 1;
        }
    }

    /// Encodes labelled segments into one token stream with a segment map.
    /// The progressive isolation phase is applied per segment.
    pub fn encode_segments(&self, parts: &[(SegmentKind, &str)]) -> TokenizedProgram {
        let mut tokens = vec![crate::vocab::BOS];
        let mut segments = Vec::with_capacity(parts.len());
        for (kind, text) in parts {
            let start = tokens.len();
            let isolated = self.isolate_symbols(text);
            self.encode_into(&isolated, &mut tokens);
            segments.push(Segment {
                kind: *kind,
                start,
                end: tokens.len(),
            });
        }
        tokens.push(crate::vocab::EOS);
        TokenizedProgram { tokens, segments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::DIGIT_BASE;

    #[test]
    fn digit_mode_emits_one_token_per_digit() {
        let t = Tokenizer::progressive();
        let ids = t.encode("128");
        assert_eq!(
            ids,
            vec![DIGIT_BASE + 1, DIGIT_BASE + 2, DIGIT_BASE + 8],
            "length-3 numeral → 3 digit tokens"
        );
    }

    #[test]
    fn whole_mode_emits_single_opaque_token() {
        let t = Tokenizer::baseline();
        let ids = t.encode("128");
        assert_eq!(ids.len(), 1);
        assert!(!t.vocab().is_digit(ids[0]));
    }

    #[test]
    fn negative_numbers_isolate_the_sign() {
        let t = Tokenizer::progressive();
        let isolated = t.isolate_symbols("-128");
        assert_eq!(isolated, "- 128");
        let ids = t.encode(&isolated);
        // minus, then three digits
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], t.vocab().punct("-").expect("minus"));
        assert!(t.vocab().is_digit(ids[1]));
    }

    #[test]
    fn token_count_scales_linearly_with_digit_length() {
        let t = Tokenizer::progressive();
        for n in 1..8 {
            let lit = "9".repeat(n);
            assert_eq!(t.encode(&lit).len(), n, "length {n}");
        }
    }

    #[test]
    fn keywords_and_idents_distinguished() {
        let t = Tokenizer::progressive();
        let for_id = t.encode("for")[0];
        let ident_id = t.encode("fortune")[0];
        assert_eq!(for_id, t.vocab().keyword("for").expect("for"));
        assert_ne!(for_id, ident_id);
    }

    #[test]
    fn two_char_punct_wins_over_one_char() {
        let t = Tokenizer::progressive();
        let ids = t.encode("<=");
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0], t.vocab().punct("<=").expect("<="));
    }

    #[test]
    fn code_line_round_structure() {
        let t = Tokenizer::progressive();
        let ids = t.encode("for (int i = 32; i < 64; i += 1) {");
        // must contain digit tokens for 3,2,6,4,1
        let digits: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&id| t.vocab().is_digit(id))
            .collect();
        assert_eq!(
            digits,
            vec![
                DIGIT_BASE + 3,
                DIGIT_BASE + 2,
                DIGIT_BASE + 6,
                DIGIT_BASE + 4,
                DIGIT_BASE + 1
            ]
        );
    }

    #[test]
    fn segments_cover_stream_in_order() {
        let t = Tokenizer::progressive();
        let tp = t.encode_segments(&[
            (SegmentKind::Graph, "void graph() { f(x); }"),
            (SegmentKind::Operator(0), "void f(float x[4]) { }"),
            (SegmentKind::Data, "n = 12"),
        ]);
        assert_eq!(tp.segments.len(), 3);
        assert_eq!(tp.segments[0].start, 1); // after BOS
        for w in tp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments are contiguous");
        }
        assert_eq!(
            tp.segments.last().expect("non-empty").end,
            tp.tokens.len() - 1 // before EOS
        );
    }

    #[test]
    fn hardware_keys_tokenize_as_keywords() {
        let t = Tokenizer::progressive();
        let ids = t.encode("Mem-Read-delay = 10");
        assert_eq!(ids[0], t.vocab().keyword("Mem-Read-delay").expect("key"));
    }

    #[test]
    fn unknown_bytes_become_unk() {
        let t = Tokenizer::progressive();
        let ids = t.encode("@");
        assert_eq!(ids, vec![crate::vocab::UNK]);
    }

    #[test]
    fn non_ascii_input_never_splits_characters() {
        // Regression: fuzzing found a mid-character slice panic on inputs
        // like `Dp"Ⱥ.ൈ` — multi-byte characters must lex as UNK wholes.
        let t = Tokenizer::progressive();
        for s in ["Dp\"Ⱥ.ൈ", "x=Ⱥ128", "日本語 for 42", "a-Ⱥ", "𑊄𞸢BX᥀=¥"] {
            let ids = t.encode(s);
            assert!(!ids.is_empty(), "{s}");
            assert!(ids.iter().all(|&id| (id as usize) < t.vocab_size()), "{s}");
        }
        // Digits adjacent to multi-byte chars still decompose digit-wise.
        let ids = t.encode("x=Ⱥ128");
        let digits: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&id| t.vocab().is_digit(id))
            .collect();
        assert_eq!(digits.len(), 3);
    }
}
