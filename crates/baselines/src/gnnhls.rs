//! GNNHLS baseline (Wu et al., DAC'22 style): the program is compiled into a
//! graph (AST + dataflow edges), node features are hand-extracted, and a
//! message-passing GNN regresses normalized costs.
//!
//! Static graph structure only — runtime inputs never enter the features, so
//! input-adaptive control flow is invisible to this model (the paper's
//! input-generalization failure mode for GNN baselines).

use crate::regression::{decode_prediction, mse_loss, Normalizer};
use llmulator::{CostModel, Dataset, Sample, TrainOptions};
use llmulator_ir::{Expr, LoopPragma, Program, Stmt};
use llmulator_nn::{AdamConfig, AdamW, Graph, Matrix, NodeId, ParamId, ParamStore};
use llmulator_sim::CostVector;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Node feature dimension.
pub const FEATURE_DIM: usize = 16;
/// Hidden width of the message-passing layers.
const HIDDEN: usize = 32;

/// A featurized program graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramGraph {
    /// `n × FEATURE_DIM` node features.
    pub features: Matrix,
    /// Row-normalized adjacency (with self loops), `n × n`.
    pub adjacency: Matrix,
}

/// Compiles a program into its GNN graph representation.
pub fn program_graph(program: &Program) -> ProgramGraph {
    let mut feats: Vec<[f32; FEATURE_DIM]> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();

    // One node per operator, then its statements (pre-order).
    let mut op_nodes = Vec::new();
    for op in &program.operators {
        let op_node = feats.len();
        op_nodes.push(op_node);
        let mut f = [0.0f32; FEATURE_DIM];
        f[0] = 1.0; // operator
        f[5] = (op.stmt_count() as f32).ln_1p();
        f[6] = op.loop_depth() as f32 / 4.0;
        f[14] = program.hw.mem_read_delay as f32 / 10.0;
        f[15] = 1.0;
        feats.push(f);
        for stmt in &op.body {
            visit(stmt, op_node, 1, program, &mut feats, &mut edges);
        }
    }
    // One node per invocation, linked to its operator and chained by
    // producer→consumer buffer reuse.
    let mut inv_nodes = Vec::new();
    for inv in &program.graph.invocations {
        let node = feats.len();
        inv_nodes.push(node);
        let mut f = [0.0f32; FEATURE_DIM];
        f[4] = 1.0; // invocation
        f[5] = inv.args.len() as f32 / 4.0;
        f[15] = 1.0;
        feats.push(f);
        if let Some(pos) = program.operators.iter().position(|o| o.name == inv.op) {
            edges.push((node, op_nodes[pos]));
        }
    }
    for (a, b) in program.graph.edges() {
        if a < inv_nodes.len() && b < inv_nodes.len() {
            edges.push((inv_nodes[a], inv_nodes[b]));
        }
    }

    let n = feats.len().max(1);
    let mut features = Matrix::zeros(n, FEATURE_DIM);
    for (i, f) in feats.iter().enumerate() {
        features.row_mut(i).copy_from_slice(f);
    }
    // Symmetric adjacency with self-loops, row-normalized.
    let mut adj = Matrix::zeros(n, n);
    for i in 0..n {
        adj.set(i, i, 1.0);
    }
    for &(a, b) in &edges {
        adj.set(a, b, 1.0);
        adj.set(b, a, 1.0);
    }
    for i in 0..n {
        let deg: f32 = adj.row(i).iter().sum();
        let inv_deg = 1.0 / deg.max(1.0);
        for v in adj.row_mut(i) {
            *v *= inv_deg;
        }
    }
    ProgramGraph {
        features,
        adjacency: adj,
    }
}

fn visit(
    stmt: &Stmt,
    parent: usize,
    depth: usize,
    program: &Program,
    feats: &mut Vec<[f32; FEATURE_DIM]>,
    edges: &mut Vec<(usize, usize)>,
) {
    let node = feats.len();
    edges.push((parent, node));
    let mut f = [0.0f32; FEATURE_DIM];
    f[6] = depth as f32 / 4.0;
    f[14] = program.hw.mem_read_delay as f32 / 10.0;
    f[15] = 1.0;
    match stmt {
        Stmt::For(l) => {
            f[1] = 1.0;
            let trip = l.const_trip_count().unwrap_or(16).max(1) as f32;
            f[5] = trip.ln_1p();
            match l.pragma {
                LoopPragma::UnrollFull | LoopPragma::Unroll(_) => f[12] = 1.0,
                LoopPragma::ParallelFor => f[13] = 1.0,
                LoopPragma::None => {}
            }
            feats.push(f);
            for s in &l.body {
                visit(s, node, depth + 1, program, feats, edges);
            }
        }
        Stmt::Assign { dest, value } => {
            f[2] = 1.0;
            count_expr(value, &mut f);
            if dest.writes_memory() {
                f[8] += 1.0;
            }
            feats.push(f);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            f[3] = 1.0;
            count_expr(cond, &mut f);
            feats.push(f);
            for s in then_body.iter().chain(else_body) {
                visit(s, node, depth + 1, program, feats, edges);
            }
        }
    }
}

fn count_expr(expr: &Expr, f: &mut [f32; FEATURE_DIM]) {
    match expr {
        Expr::Load { indices, .. } => {
            f[7] += 1.0;
            for i in indices {
                count_expr(i, f);
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            match op {
                llmulator_ir::BinOp::Mul => f[9] += 1.0,
                llmulator_ir::BinOp::Add | llmulator_ir::BinOp::Sub => f[10] += 1.0,
                _ => {}
            }
            count_expr(lhs, f);
            count_expr(rhs, f);
        }
        Expr::Call { args, .. } => {
            f[11] += 1.0;
            for a in args {
                count_expr(a, f);
            }
        }
        Expr::Unary { operand, .. } => count_expr(operand, f),
        _ => {}
    }
}

/// The GNNHLS model: two message-passing rounds plus a regression readout.
#[derive(Debug, Clone)]
pub struct Gnnhls {
    store: ParamStore,
    w_self1: ParamId,
    w_neigh1: ParamId,
    b1: ParamId,
    w_self2: ParamId,
    w_neigh2: ParamId,
    b2: ParamId,
    w_out: ParamId,
    b_out: ParamId,
    norm: Normalizer,
}

impl Gnnhls {
    /// Builds an untrained model.
    pub fn new(seed: u64) -> Gnnhls {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let std = 0.15;
        Gnnhls {
            w_self1: store.add(
                "gnn.w_self1",
                Matrix::randn(FEATURE_DIM, HIDDEN, std, &mut rng),
            ),
            w_neigh1: store.add(
                "gnn.w_neigh1",
                Matrix::randn(FEATURE_DIM, HIDDEN, std, &mut rng),
            ),
            b1: store.add("gnn.b1", Matrix::zeros(1, HIDDEN)),
            w_self2: store.add("gnn.w_self2", Matrix::randn(HIDDEN, HIDDEN, std, &mut rng)),
            w_neigh2: store.add("gnn.w_neigh2", Matrix::randn(HIDDEN, HIDDEN, std, &mut rng)),
            b2: store.add("gnn.b2", Matrix::zeros(1, HIDDEN)),
            w_out: store.add("gnn.w_out", Matrix::randn(HIDDEN, 4, std, &mut rng)),
            b_out: store.add("gnn.b_out", Matrix::zeros(1, 4)),
            norm: Normalizer::fit(&[]),
            store,
        }
    }

    fn forward<'s>(
        &self,
        g: &mut Graph<'s>,
        store: &'s ParamStore,
        graph: &ProgramGraph,
    ) -> NodeId {
        let x = g.input(graph.features.clone());
        let a = g.input(graph.adjacency.clone());
        // Round 1.
        let ws1 = g.param(store, self.w_self1);
        let wn1 = g.param(store, self.w_neigh1);
        let b1 = g.param(store, self.b1);
        let selfm = g.matmul(x, ws1);
        let agg = g.matmul(a, x);
        let neigh = g.matmul(agg, wn1);
        let h = g.add(selfm, neigh);
        let h = g.add_row(h, b1);
        let h = g.relu(h);
        // Round 2.
        let ws2 = g.param(store, self.w_self2);
        let wn2 = g.param(store, self.w_neigh2);
        let b2 = g.param(store, self.b2);
        let selfm = g.matmul(h, ws2);
        let agg = g.matmul(a, h);
        let neigh = g.matmul(agg, wn2);
        let h = g.add(selfm, neigh);
        let h = g.add_row(h, b2);
        let h = g.relu(h);
        // Readout.
        let pooled = g.mean_rows(h);
        let wo = g.param(store, self.w_out);
        let bo = g.param(store, self.b_out);
        let out = g.matmul(pooled, wo);
        let out = g.add_row(out, bo);
        g.sigmoid(out)
    }

    /// Builds and trains a GNNHLS model with the evaluation protocol shared
    /// by the experiment harness and the CLI: seed offset `+3` from the
    /// suite seed and 3× the caller's epochs (message passing converges
    /// slower than the transformer models) — one source of truth for the
    /// paper's comparison columns.
    pub fn fit_paper(dataset: &Dataset, options: TrainOptions, suite_seed: u64) -> Gnnhls {
        let mut model = Gnnhls::new(suite_seed + 3);
        model.fit(
            dataset,
            TrainOptions {
                epochs: options.epochs * 3,
                ..options
            },
        );
        model
    }

    /// Trains with MSE on normalized targets.
    pub fn fit(&mut self, dataset: &Dataset, options: TrainOptions) -> Vec<f32> {
        self.norm = Normalizer::fit(&dataset.samples);
        let items: Vec<(ProgramGraph, Matrix)> = dataset
            .samples
            .iter()
            .map(|s| (program_graph(&s.program), self.norm.target_row(s)))
            .collect();
        if items.is_empty() {
            return Vec::new();
        }
        let mut opt = AdamW::new(
            &self.store,
            AdamConfig {
                lr: options.lr,
                ..AdamConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(23);
        let mut order: Vec<usize> = (0..items.len()).collect();
        let mut curve = Vec::with_capacity(options.epochs);
        for _ in 0..options.epochs {
            order.shuffle(&mut rng);
            let mut epoch = 0.0f32;
            let mut batches = 0;
            for chunk in order.chunks(options.batch_size.max(1)) {
                let batch: Vec<&(ProgramGraph, Matrix)> =
                    chunk.iter().map(|&i| &items[i]).collect();
                let (loss, grads) = llmulator_nn::train::batch_grads(
                    &self.store,
                    &batch,
                    options.threads,
                    |g, store, item| {
                        let pred = self.forward(g, store, &item.0);
                        mse_loss(g, pred, item.1.clone())
                    },
                );
                opt.apply(&mut self.store, &grads);
                epoch += loss;
                batches += 1;
            }
            curve.push(epoch / batches.max(1) as f32);
        }
        curve
    }
}

impl CostModel for Gnnhls {
    fn name(&self) -> &str {
        "GNNHLS"
    }

    fn predict(&self, sample: &Sample) -> CostVector {
        let graph = program_graph(&sample.program);
        let mut g = Graph::new();
        let pred = self.forward(&mut g, &self.store, &graph);
        decode_prediction(&self.norm, g.value(pred))
    }

    fn predict_batch(&self, samples: &[Sample]) -> Vec<CostVector> {
        llmulator_nn::par_map(samples, llmulator_nn::available_threads(), |s| {
            self.predict(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::LValue;

    fn sample(n: usize) -> Sample {
        let op = OperatorBuilder::new("k")
            .array_param("a", [n])
            .loop_nest(&[("i", n)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) * Expr::int(2),
                )]
            })
            .build();
        Sample::profile(&Program::single_op(op), None).expect("profiles")
    }

    #[test]
    fn graph_has_expected_structure() {
        let s = sample(8);
        let pg = program_graph(&s.program);
        // operator + loop + assign + invocation = 4 nodes.
        assert_eq!(pg.features.rows(), 4);
        assert_eq!(pg.adjacency.rows(), 4);
        // Rows of the adjacency are normalized.
        for r in 0..4 {
            let sum: f32 = pg.adjacency.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn identical_static_graphs_for_different_inputs() {
        // The GNN cannot see runtime data — same graph regardless of input.
        let s = sample(8);
        let mut s2 = s.clone();
        s2.data = llmulator_ir::InputData::new().with("whatever", 99i64);
        assert_eq!(program_graph(&s.program), program_graph(&s2.program));
    }

    #[test]
    fn training_reduces_mse() {
        let mut gnn = Gnnhls::new(3);
        let ds: Dataset = vec![sample(4), sample(8), sample(16), sample(32)]
            .into_iter()
            .collect();
        let curve = gnn.fit(
            &ds,
            TrainOptions {
                epochs: 20,
                batch_size: 2,
                lr: 5e-3,
                threads: 2,
            },
        );
        assert!(curve.last().expect("runs") < curve.first().expect("runs"));
    }

    #[test]
    fn predict_yields_in_range_costs() {
        let mut gnn = Gnnhls::new(4);
        let ds: Dataset = vec![sample(4), sample(16)].into_iter().collect();
        gnn.fit(
            &ds,
            TrainOptions {
                epochs: 2,
                batch_size: 2,
                lr: 3e-3,
                threads: 1,
            },
        );
        let pred = gnn.predict(&ds.samples[0]);
        let max_cycles = ds.samples.iter().map(|s| s.cost.cycles).max().expect("ds");
        assert!(pred.cycles <= max_cycles);
        assert_eq!(gnn.name(), "GNNHLS");
    }
}
