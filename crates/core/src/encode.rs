//! Building the model's textual input from the `{G, Op, Params, data}`
//! quadruple, preserving segment boundaries for masking and caching.
//!
//! Segment order is chosen so that truncation (bounded context) drops the
//! least informative text last: hardware parameters and runtime data are
//! small and cost-critical, so they come first; operator bodies come last.

use llmulator_hls::RtlFeatures;
use llmulator_ir::{InputData, Program};
use llmulator_token::{SegmentKind, TokenizedProgram, Tokenizer};
use serde::{Deserialize, Serialize};

/// The textual form of one prediction input, split by segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentedText {
    /// `(kind, text)` pairs in model order.
    pub parts: Vec<(SegmentKind, String)>,
}

impl SegmentedText {
    /// Builds the model input text from a program, optional runtime data and
    /// an optional `<think>` reasoning fragment.
    pub fn from_program(
        program: &Program,
        data: Option<&InputData>,
        think: Option<&RtlFeatures>,
    ) -> SegmentedText {
        let mut parts = Vec::with_capacity(program.operators.len() + 4);
        parts.push((SegmentKind::Params, program.hw.render()));
        if let Some(d) = data {
            parts.push((SegmentKind::Data, d.render()));
        }
        parts.push((SegmentKind::Graph, program.render_graph()));
        if let Some(f) = think {
            parts.push((SegmentKind::Think, f.render_think()));
        }
        for (i, op) in program.operators.iter().enumerate() {
            parts.push((
                SegmentKind::Operator(i),
                llmulator_ir::render::render_operator(op),
            ));
        }
        SegmentedText { parts }
    }

    /// Total character count (the paper's "All Len" measure).
    pub fn char_len(&self) -> usize {
        self.parts.iter().map(|(_, t)| t.chars().count()).sum()
    }

    /// Replaces (or inserts) the `Data` segment — the single-segment change
    /// exercised by dynamic prediction acceleration.
    pub fn with_data(mut self, data: &InputData) -> SegmentedText {
        let rendered = data.render();
        if let Some(slot) = self.parts.iter_mut().find(|(k, _)| *k == SegmentKind::Data) {
            slot.1 = rendered;
        } else {
            self.parts.insert(1, (SegmentKind::Data, rendered));
        }
        self
    }

    /// Tokenizes with the given tokenizer and truncates to `max_len`.
    pub fn tokenize(&self, tokenizer: &Tokenizer, max_len: usize) -> TokenizedProgram {
        let borrowed: Vec<(SegmentKind, &str)> =
            self.parts.iter().map(|(k, t)| (*k, t.as_str())).collect();
        let mut tp = tokenizer.encode_segments(&borrowed);
        tp.truncate(max_len);
        tp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{Expr, LValue, Stmt};

    fn program() -> Program {
        let op = OperatorBuilder::new("scale")
            .array_param("a", [8])
            .array_param("b", [8])
            .loop_nest(&[("i", 8)], |idx| {
                vec![Stmt::assign(
                    LValue::store("b", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) * Expr::int(3),
                )]
            })
            .build();
        Program::single_op(op)
    }

    #[test]
    fn segments_cover_the_quadruple() {
        let data = InputData::new().with("n", 64i64);
        let st = SegmentedText::from_program(&program(), Some(&data), None);
        let kinds: Vec<_> = st.parts.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::Params,
                SegmentKind::Data,
                SegmentKind::Graph,
                SegmentKind::Operator(0)
            ]
        );
    }

    #[test]
    fn think_segment_included_when_present() {
        let features = llmulator_hls::compile(&program()).features;
        let st = SegmentedText::from_program(&program(), None, Some(&features));
        assert!(st.parts.iter().any(|(k, _)| *k == SegmentKind::Think));
        assert!(st
            .parts
            .iter()
            .any(|(_, t)| t.contains("Number of modules instantiated")));
    }

    #[test]
    fn with_data_replaces_existing_segment() {
        let d1 = InputData::new().with("n", 1i64);
        let d2 = InputData::new().with("n", 2i64);
        let st = SegmentedText::from_program(&program(), Some(&d1), None).with_data(&d2);
        let data_text = &st
            .parts
            .iter()
            .find(|(k, _)| *k == SegmentKind::Data)
            .expect("data segment")
            .1;
        assert!(data_text.contains("n = 2"));
        assert_eq!(
            st.parts
                .iter()
                .filter(|(k, _)| *k == SegmentKind::Data)
                .count(),
            1
        );
    }

    #[test]
    fn tokenize_truncates_and_keeps_segments() {
        let st = SegmentedText::from_program(&program(), None, None);
        let tp = st.tokenize(&Tokenizer::progressive(), 24);
        assert!(tp.tokens.len() <= 24);
        assert!(!tp.segments.is_empty());
    }

    #[test]
    fn char_len_counts_everything() {
        let st = SegmentedText::from_program(&program(), None, None);
        assert_eq!(
            st.char_len(),
            st.parts
                .iter()
                .map(|(_, t)| t.chars().count())
                .sum::<usize>()
        );
        assert!(st.char_len() > 50);
    }
}
