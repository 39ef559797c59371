//! # llmulator
//!
//! Reproduction of **LLMulator: Generalizable Cost Modeling for Dataflow
//! Accelerators with Input-Adaptive Control Flow** (MICRO 2025).
//!
//! Given the quadruple `{G, Op, Params, data}` — a dataflow graph, operator
//! implementations, hardware configuration and runtime inputs — LLMulator
//! predicts the vector `<Power, Area, Flip-Flops, Cycles>` with per-digit
//! confidence. Three mechanisms from the paper are implemented here:
//!
//! * **Numeric modeling-based static prediction** ([`model`], [`numeric`]):
//!   progressive digit tokenization on the input side and digit-wise
//!   categorical heads (Eq. 1) with greedy digit decoding (beam search
//!   ranks runner-up digit strings on demand) and explicit
//!   confidence on the output side;
//! * **Dynamic prediction-based calibration** ([`calibrate`]): a DPO loop
//!   (Eq. 2) against profiler feedback with a sliding replay buffer, plus
//!   dynamic control-flow separation masks ([`masks`]) built from the static
//!   Class I/II analysis;
//! * **Dynamic prediction acceleration** ([`accel`]): block-cached masked
//!   attention that recomputes only rows reachable from changed segments.
//!
//! ```
//! use llmulator::{NumericPredictor, PredictorConfig, Sample};
//! use llmulator_ir::builder::OperatorBuilder;
//! use llmulator_ir::{Expr, Program, Stmt, LValue};
//!
//! let op = OperatorBuilder::new("inc")
//!     .array_param("a", [8])
//!     .loop_nest(&[("i", 8)], |idx| {
//!         vec![Stmt::assign(
//!             LValue::store("a", vec![idx[0].clone()]),
//!             Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
//!         )]
//!     })
//!     .build();
//! let sample = Sample::profile(&Program::single_op(op), None)?;
//! let model = NumericPredictor::new(PredictorConfig::default());
//! let prediction = model.predict_sample(&sample);
//! assert_eq!(prediction.per_metric.len(), 4);
//! # Ok::<(), llmulator_sim::SimError>(())
//! ```

pub mod accel;
pub mod cache;
pub mod calibrate;
pub mod counters;
pub mod dataset;
pub mod encode;
pub mod engine;
pub mod error;
pub mod fault;
pub mod masks;
pub mod model;
pub mod numeric;
pub mod online;
pub mod persist;
pub mod serve_pool;
mod sync;

pub use accel::{CachedPredictor, InferStats};
pub use cache::{content_hash, write_atomic, CacheStats, DatasetCache};
pub use calibrate::{
    calibrate_cycles, CalibrationStep, CalibrationTrace, DpoCalibrator, DpoConfig,
    PreferenceTriple, ReplayBuffer, ReplayEntry,
};
pub use counters::{Counter, Counters};
pub use dataset::{CostModel, Dataset, Sample};
pub use encode::SegmentedText;
pub use engine::{
    Engine, EngineConfig, Feedback, ItemPrediction, MetricValue, PredictInput, PredictRequest,
    PredictResponse, Resolved, ServableModel, Session,
};
pub use error::Error;
pub use fault::{silence_injected_panics, FaultAction, FaultPlan, FAULT_MARKER};
pub use masks::{attended_fraction, separation_mask, MaskOptions};
pub use model::{
    MetricPrediction, ModelScale, NumericPredictor, Prediction, PredictorConfig, TrainOptions,
};
pub use numeric::{beam_search, BeamHypothesis, DigitCodec, DigitDistribution};
pub use online::{
    abs_rel_error, route_key, AbRouter, CalibrationConfig, CalibrationMeta, Calibrator,
    CalibratorCore, FeedbackQueue, ModelScorecard, Scoreboard,
};
pub use persist::{PersistError, FORMAT_VERSION, MIN_FORMAT_VERSION};
pub use serve_pool::{LatencyHistogram, LatencySummary, PoolConfig, ServeJob, ServePool};
