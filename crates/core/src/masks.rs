//! Dynamic control-flow separation (paper Sec. 5.2) as attention masks.
//!
//! Operators are classified by the taint analysis into Class I
//! (input-independent control flow, [`AdaptivityClass::Static`]) and Class II
//! (input-dependent: shape- or data-adaptive). Class I operator tokens have
//! no useful interaction with the `data` segment, so the mask conceals those
//! blocks; optionally, mutually independent operators are decoupled from
//! each other (the paper's Fig. 6 attention pattern), which is what makes
//! block caching effective during iterative design exploration.

use llmulator_ir::AdaptivityClass;
use llmulator_nn::Matrix;
use llmulator_token::{SegmentKind, TokenizedProgram};

/// Additive mask value for blocked pairs.
pub const BLOCKED: f32 = -1e9;

/// Options controlling mask construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskOptions {
    /// Conceal Class I operator ↔ `data` interactions.
    pub separate_class_i_from_data: bool,
    /// Decouple distinct operator segments from each other (the Fig. 6
    /// `Op0 × Op1 = 0` pattern for independent operators).
    pub decouple_operators: bool,
}

impl Default for MaskOptions {
    fn default() -> Self {
        MaskOptions {
            separate_class_i_from_data: true,
            decouple_operators: false,
        }
    }
}

/// Builds the additive `n × n` separation mask for a tokenized program.
///
/// `classes[i]` is the classification of operator `i` (as
/// [`llmulator_ir::operator_classes`] returns them); operators without a
/// classification are treated as Class II (conservative — they keep their
/// data attention).
pub fn separation_mask(
    tp: &TokenizedProgram,
    classes: &[AdaptivityClass],
    options: MaskOptions,
) -> Matrix {
    let n = tp.tokens.len();
    // Per-token segment tags: None = structural (BOS/EOS) attends everything.
    let mut tag: Vec<Option<SegmentKind>> = vec![None; n];
    for seg in &tp.segments {
        for slot in tag.iter_mut().take(seg.end.min(n)).skip(seg.start) {
            *slot = Some(seg.kind);
        }
    }
    let class_i = |op: usize| classes.get(op).is_some_and(|c| c.is_static());
    Matrix::from_fn(n, n, |i, j| {
        let (Some(a), Some(b)) = (tag[i], tag[j]) else {
            return 0.0;
        };
        let blocked = match (a, b) {
            (SegmentKind::Operator(op), SegmentKind::Data)
            | (SegmentKind::Data, SegmentKind::Operator(op)) => {
                options.separate_class_i_from_data && class_i(op)
            }
            (SegmentKind::Operator(x), SegmentKind::Operator(y)) => {
                options.decouple_operators && x != y
            }
            _ => false,
        };
        if blocked {
            BLOCKED
        } else {
            0.0
        }
    })
}

/// Counts attended (non-blocked) entries — used to report mask sparsity.
pub fn attended_fraction(mask: &Matrix) -> f64 {
    let total = (mask.rows() * mask.cols()).max(1);
    let open = mask.data().iter().filter(|&&v| v > BLOCKED / 2.0).count();
    open as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmulator_token::Segment;

    fn tokenized() -> TokenizedProgram {
        TokenizedProgram {
            tokens: (0..10).collect(),
            segments: vec![
                Segment {
                    kind: SegmentKind::Graph,
                    start: 1,
                    end: 3,
                },
                Segment {
                    kind: SegmentKind::Operator(0),
                    start: 3,
                    end: 5,
                },
                Segment {
                    kind: SegmentKind::Operator(1),
                    start: 5,
                    end: 7,
                },
                Segment {
                    kind: SegmentKind::Data,
                    start: 7,
                    end: 9,
                },
            ],
        }
    }

    #[test]
    fn class_i_operator_is_masked_from_data() {
        let tp = tokenized();
        let mask = separation_mask(
            &tp,
            &[AdaptivityClass::Static, AdaptivityClass::DataAdaptive],
            MaskOptions::default(),
        );
        // Op0 (Class I) rows 3-4 × Data cols 7-8 blocked, both directions.
        assert!(mask.get(3, 7) <= BLOCKED);
        assert!(mask.get(8, 4) <= BLOCKED);
        // Op1 (Class II) keeps data attention.
        assert!(mask.get(5, 7) == 0.0);
        // Graph attends everything.
        assert!(mask.get(1, 7) == 0.0);
    }

    #[test]
    fn unknown_class_defaults_to_class_ii() {
        let tp = tokenized();
        let mask = separation_mask(&tp, &[], MaskOptions::default());
        assert!(mask.get(3, 7) == 0.0, "conservative: keep attention");
        // Op1 has no class: it keeps its data attention while Op0 is masked.
        let mask = separation_mask(&tp, &[AdaptivityClass::Static], MaskOptions::default());
        assert!(mask.get(3, 7) <= BLOCKED);
        assert!(mask.get(5, 7) == 0.0 && mask.get(8, 6) == 0.0);
    }

    #[test]
    fn graph_scalar_bound_keeps_data_attention() {
        // `win`'s loop bound reads graph scalar `n` directly: its cost moves
        // with `n`, so the operator is Class II and must see the data.
        let program = llmulator_ir::parse::parse_program(
            "void win(float a[64]) {\n  for (int i = 0; i < n; i += 1) {\n    a[i] = 1;\n  }\n}\n\
             void graph(int n) {\n  float buf[64];\n  win(buf);\n}\n",
        )
        .expect("parses");
        let classes = llmulator_ir::operator_classes(&program);
        assert_eq!(classes, [AdaptivityClass::ShapeAdaptive]);
        let tp = tokenized();
        let mask = separation_mask(&tp, &classes, MaskOptions::default());
        for (op, data) in [(3, 7), (4, 8), (7, 3), (8, 4)] {
            assert_eq!(mask.get(op, data), 0.0, "Op0 x Data open at ({op}, {data})");
        }
    }

    #[test]
    fn operator_decoupling_blocks_cross_op_blocks() {
        let tp = tokenized();
        let mask = separation_mask(
            &tp,
            &[
                AdaptivityClass::ShapeAdaptive,
                AdaptivityClass::DataAdaptive,
            ],
            MaskOptions {
                separate_class_i_from_data: true,
                decouple_operators: true,
            },
        );
        assert!(mask.get(3, 5) <= BLOCKED, "Op0×Op1 blocked");
        assert!(mask.get(3, 4) == 0.0, "within-op attention kept");
        assert!(mask.get(3, 1) == 0.0, "op×graph kept");
    }

    #[test]
    fn structural_tokens_attend_everything() {
        let tp = tokenized();
        let mask = separation_mask(
            &tp,
            &[AdaptivityClass::Static],
            MaskOptions {
                separate_class_i_from_data: true,
                decouple_operators: true,
            },
        );
        for j in 0..10 {
            assert_eq!(mask.get(0, j), 0.0, "BOS row open at {j}");
            assert_eq!(mask.get(9, j), 0.0, "EOS row open at {j}");
        }
    }

    #[test]
    fn attended_fraction_reflects_blocking() {
        let tp = tokenized();
        let open = separation_mask(&tp, &[], MaskOptions::default());
        assert!((attended_fraction(&open) - 1.0).abs() < 1e-9);
        let masked = separation_mask(
            &tp,
            &[AdaptivityClass::Static, AdaptivityClass::Static],
            MaskOptions::default(),
        );
        assert!(attended_fraction(&masked) < 1.0);
    }
}
