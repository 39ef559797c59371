//! Segment-labelled token streams.
//!
//! LLMulator's dynamic control-flow separation and prediction acceleration
//! operate on *segments* of the model input — the dataflow graph text, each
//! operator's text, the hardware parameters, the runtime data, and the
//! optional `<think>` reasoning fragment. Tokenization preserves these
//! boundaries so the core crate can build attention masks over them.

use serde::{Deserialize, Serialize};

/// What a stretch of tokens represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// The dataflow graph function (`G`).
    Graph,
    /// The `i`-th operator definition (`Op_i`).
    Operator(usize),
    /// Hardware mapping and parameters (`Params`).
    Params,
    /// Runtime input data (`data`).
    Data,
    /// The `<think>` reasoning fragment.
    Think,
}

/// A labelled half-open token range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// What the range contains.
    pub kind: SegmentKind,
    /// First token index (inclusive).
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

impl Segment {
    /// Number of tokens in the segment.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// True if the token index falls inside this segment.
    pub fn contains(&self, index: usize) -> bool {
        (self.start..self.end).contains(&index)
    }
}

/// A tokenized program: the id stream plus its segment map.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenizedProgram {
    /// Token ids (starts with `BOS`, ends with `EOS`).
    pub tokens: Vec<u32>,
    /// Segment map covering the ids between `BOS` and `EOS`.
    pub segments: Vec<Segment>,
}

impl TokenizedProgram {
    /// Truncates the stream (and its segments) to at most `max_len` tokens.
    pub fn truncate(&mut self, max_len: usize) {
        if self.tokens.len() <= max_len {
            return;
        }
        self.tokens.truncate(max_len);
        self.segments.retain_mut(|s| {
            if s.start >= max_len {
                return false;
            }
            s.end = s.end.min(max_len);
            !s.is_empty()
        });
    }

    /// The segment covering a token index, if any.
    pub fn segment_of(&self, index: usize) -> Option<&Segment> {
        self.segments.iter().find(|s| s.contains(index))
    }

    /// The segment with the given kind, if present.
    pub fn find(&self, kind: SegmentKind) -> Option<&Segment> {
        self.segments.iter().find(|s| s.kind == kind)
    }

    /// Total token count.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when only `BOS`/`EOS` remain.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TokenizedProgram {
        TokenizedProgram {
            tokens: (0..12).collect(),
            segments: vec![
                Segment {
                    kind: SegmentKind::Graph,
                    start: 1,
                    end: 5,
                },
                Segment {
                    kind: SegmentKind::Operator(0),
                    start: 5,
                    end: 9,
                },
                Segment {
                    kind: SegmentKind::Data,
                    start: 9,
                    end: 11,
                },
            ],
        }
    }

    #[test]
    fn truncate_trims_and_drops_segments() {
        let mut tp = sample();
        tp.truncate(7);
        assert_eq!(tp.tokens.len(), 7);
        assert_eq!(tp.segments.len(), 2);
        assert_eq!(tp.segments[1].end, 7);
    }

    #[test]
    fn truncate_noop_when_short() {
        let mut tp = sample();
        tp.truncate(100);
        assert_eq!(tp.tokens.len(), 12);
        assert_eq!(tp.segments.len(), 3);
    }

    #[test]
    fn segment_lookup() {
        let tp = sample();
        assert_eq!(
            tp.segment_of(6).map(|s| s.kind),
            Some(SegmentKind::Operator(0))
        );
        assert_eq!(tp.segment_of(0), None); // BOS belongs to no segment
        assert!(tp.find(SegmentKind::Data).is_some());
        assert!(tp.find(SegmentKind::Think).is_none());
    }

    #[test]
    fn segment_len_and_contains() {
        let s = Segment {
            kind: SegmentKind::Params,
            start: 3,
            end: 3,
        };
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(3));
    }
}
