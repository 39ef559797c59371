//! Property-based tests on the core data structures and cross-crate
//! invariants: digit codec round trips, tokenizer linearity, renderer/parser
//! round trips, simulator monotonicity and metric properties.

use llmulator::{
    beam_search, fusion_group_key, group_by_key, Dataset, DigitCodec, DigitDistribution, Sample,
};
use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{Expr, InputData, LValue, Program, Stmt};
use llmulator_nn::Matrix;
use llmulator_token::Tokenizer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn digit_codec_round_trips(value in 0u64..100_000_000) {
        let codec = DigitCodec::standard();
        prop_assert_eq!(codec.decode(&codec.encode(value)), value);
    }

    #[test]
    fn digit_codec_saturates_monotonically(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let codec = DigitCodec::decimal(5);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(codec.decode(&codec.encode(lo)) <= codec.decode(&codec.encode(hi)));
    }

    #[test]
    fn progressive_tokenizer_is_linear_in_digits(value in 0u64..10_000_000) {
        let t = Tokenizer::progressive();
        let text = value.to_string();
        prop_assert_eq!(t.encode(&text).len(), text.len());
    }

    #[test]
    fn baseline_tokenizer_is_constant_in_digits(value in 0u64..10_000_000) {
        let t = Tokenizer::baseline();
        prop_assert_eq!(t.encode(&value.to_string()).len(), 1);
    }

    #[test]
    fn dataset_split_partitions_in_order(k in 0usize..10, n in 0usize..32) {
        // One cheap profile, cloned with a distinguishing input binding so
        // ordering is observable.
        let op = OperatorBuilder::new("id")
            .array_param("a", [4])
            .loop_nest(&[("i", 4)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]),
                )]
            })
            .build();
        let base = Sample::profile(&Program::single_op(op), None).expect("profiles");
        let samples: Vec<Sample> = (0..n)
            .map(|i| {
                let mut s = base.clone();
                s.data.bind("idx", i as i64);
                s
            })
            .collect();
        let ds = Dataset { samples: samples.clone() };
        let (train, val) = ds.split(k);
        // `k < 2` clamps to 2 (documented): split(0)/split(1) == split(2).
        let kk = k.max(2);
        prop_assert_eq!(train.len() + val.len(), n, "split partitions the input");
        let (mut ti, mut vi) = (0usize, 0usize);
        for (i, s) in samples.iter().enumerate() {
            if i % kk == kk - 1 {
                prop_assert_eq!(&val.samples[vi], s, "validation keeps input order");
                vi += 1;
            } else {
                prop_assert_eq!(&train.samples[ti], s, "train keeps input order");
                ti += 1;
            }
        }
        prop_assert_eq!(ti, train.len());
        prop_assert_eq!(vi, val.len());
    }

    #[test]
    fn beam_search_is_sorted_and_bounded(k in 1usize..8) {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                let mut row = vec![0.05f32; 10];
                row[(r * 3) % 10] = 0.55;
                row
            })
            .collect();
        let dist = DigitDistribution::new(10, rows);
        let beams = beam_search(&dist, k);
        prop_assert!(beams.len() <= k);
        prop_assert!(beams.windows(2).all(|w| w[0].log_prob >= w[1].log_prob));
        prop_assert_eq!(&beams[0].digits, &dist.greedy());
    }

    /// The greedy decode every prediction uses is exactly beam search's top
    /// hypothesis, on rows built to trip a plain argmax: exact ties
    /// (probabilities quantised to quarters), NaN entries, all-uniform rows,
    /// and near-ties that the running f32 sum absorbs once tiny-probability
    /// rows have driven it far below zero.
    #[test]
    fn greedy_is_exactly_the_beam_top1(seed in 0u64..1_000_000, width in 0usize..9, k in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..width)
            .map(|_| match rng.gen_range(0..5) {
                0 => (0..10).map(|_| f32::from(rng.gen_range(0u8..4)) * 0.25).collect(),
                1 => (0..10)
                    .map(|_| if rng.gen_bool(0.3) { f32::NAN } else { rng.gen_range(0.0f32..1.0) })
                    .collect(),
                2 => vec![rng.gen_range(0.0f32..1.0); 10],
                // Each such row lowers the running sum by ~20.7.
                3 => vec![1e-12f32; 10],
                // Log-gaps of ~2e-7, below the sum's ulp past |s| ~ 4.
                _ => (0..10).map(|_| 0.5 + f32::from(rng.gen_range(0u8..4)) * 1e-7).collect(),
            })
            .collect();
        let dist = DigitDistribution::new(10, rows);
        prop_assert_eq!(dist.greedy(), beam_search(&dist, k)[0].digits.clone());
    }

    #[test]
    fn simulator_cycles_monotone_in_trip_count(n in 1i64..48, extra in 1i64..16) {
        let program = dyn_loop_program();
        let small = llmulator_sim::simulate(
            &program,
            &InputData::new().with("n", n),
        ).expect("small").total_cycles;
        let large = llmulator_sim::simulate(
            &program,
            &InputData::new().with("n", n + extra),
        ).expect("large").total_cycles;
        prop_assert!(large > small, "{large} > {small}");
    }

    #[test]
    fn render_parse_round_trips_random_sizes(n in 2usize..32, m in 2usize..32) {
        let op = OperatorBuilder::new("k")
            .array_param("a", [n, m])
            .array_param("b", [n, m])
            .loop_nest(&[("i", n), ("j", m)], |idx| {
                vec![Stmt::assign(
                    LValue::store("b", vec![idx[0].clone(), idx[1].clone()]),
                    Expr::load("a", vec![idx[0].clone(), idx[1].clone()]) * Expr::int(2),
                )]
            })
            .build();
        let program = Program::single_op(op);
        let text = program.render();
        let parsed = llmulator_ir::parse::parse_program(&text).expect("parses");
        prop_assert_eq!(parsed, program);
    }

    #[test]
    fn mape_is_scale_invariant(truth in 1.0f64..1e6, err_frac in 0.0f64..0.9, scale in 0.1f64..100.0) {
        let pred = truth * (1.0 + err_frac);
        let a = llmulator_eval::mape(&[pred], &[truth]);
        let b = llmulator_eval::mape(&[pred * scale], &[truth * scale]);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn hls_area_monotone_in_unroll(n in 4usize..32) {
        let plain = hls_area(n, llmulator_ir::LoopPragma::None);
        let unrolled = hls_area(n, llmulator_ir::LoopPragma::UnrollFull);
        prop_assert!(unrolled >= plain, "{unrolled} >= {plain}");
    }

    /// Every hypothesis beam search returns decodes to a value inside the
    /// codec's representable range — the error-control mechanism can never
    /// hallucinate an out-of-range cost.
    #[test]
    fn beam_search_stays_in_codec_range(k in 1usize..12, width in 2usize..7, seed in 0u64..1000) {
        let codec = DigitCodec::decimal(width);
        // Pseudo-random but structured rows: a sharp peak per position whose
        // location depends on the seed, plus uniform background mass.
        let rows: Vec<Vec<f32>> = (0..width)
            .map(|j| {
                let mut row = vec![0.03f32; 10];
                row[((seed as usize).wrapping_mul(31) + j * 7) % 10] = 0.7;
                row
            })
            .collect();
        let dist = DigitDistribution::new(10, rows);
        let beams = beam_search(&dist, k);
        prop_assert!(!beams.is_empty() && beams.len() <= k);
        // Falsifiable ranking properties on a randomized distribution: the
        // hypotheses are sorted by joint probability and the best one is
        // exactly the greedy decode.
        prop_assert!(beams.windows(2).all(|w| w[0].log_prob >= w[1].log_prob));
        prop_assert_eq!(&beams[0].digits, &dist.greedy());
        for hyp in &beams {
            prop_assert_eq!(hyp.digits.len(), width);
            let value = codec.decode(&hyp.digits);
            prop_assert!(value <= codec.max_value(), "{} <= {}", value, codec.max_value());
        }
    }

    /// The blocked production matmul matches the naive triple-loop oracle on
    /// randomized (including non-multiple-of-block) shapes. The kernels are
    /// designed to preserve the naive per-element accumulation order, so the
    /// 1e-4 tolerance is in practice exact.
    #[test]
    fn blocked_matmul_matches_naive_reference(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let fast = a.matmul(&b);
        let oracle = a.matmul_naive(&b);
        prop_assert_eq!(fast.shape(), oracle.shape());
        for (x, y) in fast.data().iter().zip(oracle.data()) {
            prop_assert!((x - y).abs() < 1e-4, "{} vs {}", x, y);
        }
    }

    /// Same property for the transpose-fused kernels (`A·Bᵀ` and `Aᵀ·B`).
    #[test]
    fn blocked_transposed_matmuls_match_naive_reference(
        m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let bt = Matrix::randn(n, k, 1.0, &mut rng);
        let fast_nt = a.matmul_nt(&bt);
        let oracle_nt = a.matmul_nt_naive(&bt);
        for (x, y) in fast_nt.data().iter().zip(oracle_nt.data()) {
            prop_assert!((x - y).abs() < 1e-4, "nt {} vs {}", x, y);
        }
        let at = Matrix::randn(k, m, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let fast_tn = at.matmul_tn(&b);
        let oracle_tn = at.matmul_tn_naive(&b);
        for (x, y) in fast_tn.data().iter().zip(oracle_tn.data()) {
            prop_assert!((x - y).abs() < 1e-4, "tn {} vs {}", x, y);
        }
    }

    /// The register-tiled `matmul_into` equals the plain triple-loop oracle
    /// bit for bit on shapes hitting every `m % 4` and `n % 8` tail and
    /// `k = 0`, with entries mixing finite normals, `±0.0`, `±inf`, NaN and
    /// subnormals, written into a stale, wrongly shaped output buffer.
    /// Signed zeros and infinities compare by `to_bits`; NaN compares as a
    /// class, because Rust leaves the sign and payload of a NaN that
    /// arithmetic produces unspecified (the compiler may swap the operands
    /// of `+` and `*`, which picks which NaN propagates).
    #[test]
    fn tiled_matmul_is_bit_identical_to_the_plain_oracle(
        m in 0usize..40, k in 0usize..40, n in 0usize..40, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x711e);
        let a = special_matrix(m, k, &mut rng);
        let b = special_matrix(k, n, &mut rng);
        let mut out = Matrix::from_fn(n + 3, m + 1, |_, _| f32::NAN);
        a.matmul_into(&b, &mut out);
        let oracle = a.matmul_naive(&b);
        prop_assert_eq!(out.shape(), (m, n));
        prop_assert_eq!(nan_class_bits(&out), nan_class_bits(&oracle));
    }

    /// The same property for the transposed kernels: the register-tiled
    /// `matmul_tn_into` (`Aᵀ·B`) and `matmul_nt_into` (`A·Bᵀ`, a transpose
    /// then `matmul_into`) equal their plain triple-loop oracles bit for
    /// bit, NaN compared as a class, on shapes hitting every `% 4` and
    /// `% 8` tail and `k = 0`, written into a stale, wrongly shaped output.
    #[test]
    fn tiled_transposed_matmuls_are_bit_identical_to_the_plain_oracles(
        m in 0usize..40, k in 0usize..40, n in 0usize..40, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a75);
        let at = special_matrix(k, m, &mut rng);
        let b = special_matrix(k, n, &mut rng);
        let mut out = Matrix::from_fn(n + 5, m + 2, |_, _| f32::NAN);
        at.matmul_tn_into(&b, &mut out);
        prop_assert_eq!(out.shape(), (m, n));
        prop_assert_eq!(nan_class_bits(&out), nan_class_bits(&at.matmul_tn_naive(&b)), "tn");
        let a = special_matrix(m, k, &mut rng);
        let bt = special_matrix(n, k, &mut rng);
        let mut out = Matrix::from_fn(m + 1, n + 7, |_, _| -0.0);
        a.matmul_nt_into(&bt, &mut out);
        prop_assert_eq!(out.shape(), (m, n));
        prop_assert_eq!(nan_class_bits(&out), nan_class_bits(&a.matmul_nt_naive(&bt)), "nt");
    }

    /// The one encoder inference kernel against the independent row-loop
    /// oracle: for packs of 1–8 sequences sharing an effective length
    /// (raw lengths 0 to `max_len + 8`, so longer ones truncate together)
    /// with ids past the vocabulary, every packed row and every pooled row
    /// equals `encode_naive` on that sequence alone, bit for bit.
    #[test]
    fn forward_packed_rows_are_bit_identical_to_the_naive_oracle(
        group in 1usize..9, seed in 0u64..1000,
    ) {
        use llmulator_nn::{encode_naive, forward_packed, ParamStore, Scratch, Transformer, TransformerConfig};
        let cfg = TransformerConfig { n_layers: 2, ..TransformerConfig::tiny(64) };
        let mut store = ParamStore::new();
        let t = Transformer::new(cfg, &mut store, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let len = rng.gen_range(0..cfg.max_len + 9);
        let seqs: Vec<Vec<u32>> = (0..group)
            .map(|_| {
                let len = if len < cfg.max_len { len } else { rng.gen_range(cfg.max_len..cfg.max_len + 9) };
                (0..len)
                    .map(|_| if rng.gen_bool(0.1) { u32::MAX } else { rng.gen_range(0u32..128) })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut Scratch::new());
        let n = cfg.effective_len(len);
        prop_assert_eq!(seq.shape(), (group * n, cfg.d_model));
        for (s, tokens) in seqs.iter().enumerate() {
            let (ns, np) = encode_naive(&t, &store, tokens, None);
            prop_assert_eq!(&seq.data()[s * n * cfg.d_model..(s + 1) * n * cfg.d_model], ns.data());
            prop_assert_eq!(pooled.row(s), np.row(0), "sample {}", s);
        }
    }

    /// The attention path against both references on the `tiny` config
    /// (head dimension 8): for lengths 1 to `max_len + 8`, so `n < 8`,
    /// `n % 8 ≠ 0` and truncation all occur, with and without a random
    /// additive mask that fully masks at least one row, `forward` equals
    /// `encode_naive` and the tape's `Transformer::encode` bit for bit; and
    /// every sample of a pack of 1–4 through `forward_packed` equals
    /// `forward` on that sample alone.
    #[test]
    fn attention_gemm_path_matches_the_oracle_and_the_tape(
        len in 1usize..41, group in 1usize..5, seed in 0u64..1000,
    ) {
        use llmulator_nn::{encode_naive, forward, forward_packed, Graph, ParamStore, Scratch, Transformer, TransformerConfig};
        let cfg = TransformerConfig::tiny(64);
        let mut store = ParamStore::new();
        let t = Transformer::new(cfg, &mut store, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa77e);
        let n = cfg.effective_len(len);
        let blocked_row = rng.gen_range(0..n);
        let mask_data: Vec<f32> = (0..n * n)
            .map(|at| if at / n == blocked_row || rng.gen_bool(0.3) { -1e9 } else { 0.0 })
            .collect();
        let mask = Matrix::from_vec(n, n, mask_data);
        let seqs: Vec<Vec<u32>> = (0..group)
            .map(|_| (0..len).map(|_| rng.gen_range(0u32..64)).collect())
            .collect();
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut scratch = Scratch::new();
        for m in [None, Some(&mask)] {
            for tokens in &seqs {
                let (fs, fp) = forward(&t, &store, tokens, m, &mut scratch);
                let (ns, np) = encode_naive(&t, &store, tokens, m);
                let mut g = Graph::new();
                let out = t.encode(&mut g, &store, tokens, m);
                prop_assert_eq!(bits(fs.data()), bits(ns.data()), "naive seq, mask={}", m.is_some());
                prop_assert_eq!(bits(fp.data()), bits(np.data()), "naive pooled, mask={}", m.is_some());
                prop_assert_eq!(bits(fs.data()), bits(g.value(out.seq).data()), "tape seq, mask={}", m.is_some());
                prop_assert_eq!(bits(fp.data()), bits(g.value(out.pooled).data()), "tape pooled, mask={}", m.is_some());
            }
        }
        let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        let d = cfg.d_model;
        for (s, tokens) in seqs.iter().enumerate() {
            let (fs, fp) = forward(&t, &store, tokens, None, &mut scratch);
            prop_assert_eq!(bits(&seq.data()[s * n * d..(s + 1) * n * d]), bits(fs.data()), "packed seq {}", s);
            prop_assert_eq!(bits(pooled.row(s)), bits(fp.data()), "packed pooled {}", s);
        }
    }

    /// The §5.3 encoder cache against fresh passes: for lengths 0 to
    /// `max_len + 8` (so truncation occurs), with and without a random mask
    /// that blocks random pairs and whole rows, `encode_cached` over a
    /// cache of a previous sequence gives `seq`/`pooled` bit-identical to
    /// `encode_naive` and `forward` under the same mask. The previous
    /// sequence is the current one with random positions changed, or a
    /// random sequence of another length; without a usable cache (another
    /// effective length) every row is computed.
    #[test]
    fn incremental_cached_encoder_is_bit_identical_to_fresh_passes(
        len in 0usize..41, seed in 0u64..1000,
    ) {
        use llmulator_nn::{encode_cached, encode_naive, forward, ParamStore, Scratch, Transformer, TransformerConfig};
        let cfg = TransformerConfig { n_layers: 2, ..TransformerConfig::tiny(64) };
        let mut store = ParamStore::new();
        let t = Transformer::new(cfg, &mut store, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcac4e);
        let random_mask = |n: usize, rng: &mut StdRng| {
            let blocked_rows: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
            let data = (0..n * n)
                .map(|at| if blocked_rows[at / n] || rng.gen_bool(0.3) { -1e9 } else { 0.0 })
                .collect();
            Matrix::from_vec(n, n, data)
        };
        let n = cfg.effective_len(len);
        let mask = random_mask(n, &mut rng);
        let tokens: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..64)).collect();
        let prev: Vec<u32> = if rng.gen_bool(0.25) {
            (0..rng.gen_range(0usize..41)).map(|_| rng.gen_range(0u32..64)).collect()
        } else {
            let changes = rng.gen_range(0..4);
            let mut prev = tokens.clone();
            for _ in 0..changes.min(len) {
                let at = rng.gen_range(0..len);
                prev[at] = rng.gen_range(0u32..64);
            }
            prev
        };
        let prev_n = cfg.effective_len(prev.len());
        let prev_mask = if prev_n == n { mask.clone() } else { random_mask(prev_n, &mut rng) };
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut scratch = Scratch::new();
        for (m, pm) in [(None, None), (Some(&mask), Some(&prev_mask))] {
            let (cache, _) = encode_cached(&t, &store, &prev, pm, None);
            let (inc, stats) = encode_cached(&t, &store, &tokens, m, Some(&cache));
            let (ns, np) = encode_naive(&t, &store, &tokens, m);
            let (fs, fp) = forward(&t, &store, &tokens, m, &mut scratch);
            prop_assert_eq!(bits(inc.seq.data()), bits(ns.data()), "naive seq, mask={}", m.is_some());
            prop_assert_eq!(bits(inc.pooled.data()), bits(np.data()), "naive pooled, mask={}", m.is_some());
            prop_assert_eq!(bits(inc.seq.data()), bits(fs.data()), "forward seq, mask={}", m.is_some());
            prop_assert_eq!(bits(inc.pooled.data()), bits(fp.data()), "forward pooled, mask={}", m.is_some());
            prop_assert_eq!(stats.rows_total, n * cfg.n_layers);
            prop_assert!(stats.rows_computed <= stats.rows_total);
            if prev_n != n {
                prop_assert_eq!(stats.rows_computed, stats.rows_total, "cold pass, mask={}", m.is_some());
            }
        }
    }

    /// The fused tape attention node against the per-head chain it
    /// replaced, built from public `Graph` ops only ([`unfused_encode`]):
    /// for 1, 2 and 4 heads, 2 layers, lengths 1 to `max_len + 8` (so `n < 8`,
    /// `n % 8 ≠ 0` and truncation all occur), with and without a random
    /// additive mask that fully masks at least one row, the encoder output,
    /// the loss and every parameter gradient are equal bit for bit.
    #[test]
    fn fused_tape_attention_is_bit_identical_to_the_per_head_chain(
        len in 1usize..41, seed in 0u64..1000,
    ) {
        use llmulator_nn::{Graph, ParamStore, Transformer, TransformerConfig};
        let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for heads in [1usize, 2, 4] {
            let cfg = TransformerConfig { n_heads: heads, n_layers: 2, ..TransformerConfig::tiny(64) };
            let mut store = ParamStore::new();
            let t = Transformer::new(cfg, &mut store, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xa77f);
            let head = store.add("head", Matrix::randn(cfg.d_model, 5, 0.5, &mut rng));
            let n = cfg.effective_len(len);
            let blocked_row = rng.gen_range(0..n);
            let mask = Matrix::from_vec(
                n,
                n,
                (0..n * n)
                    .map(|at| if at / n == blocked_row || rng.gen_bool(0.3) { -1e9 } else { 0.0 })
                    .collect(),
            );
            let tokens: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..64)).collect();
            let target = rng.gen_range(0..5);
            for m in [None, Some(&mask)] {
                let mut runs = Vec::new();
                for fused in [true, false] {
                    let mut g = Graph::new();
                    let (seq, pooled) = if fused {
                        let out = t.encode(&mut g, &store, &tokens, m);
                        (out.seq, out.pooled)
                    } else {
                        unfused_encode(&mut g, &store, cfg, &tokens, m)
                    };
                    let h = g.param(&store, head);
                    let logits = g.matmul(pooled, h);
                    let loss = g.cross_entropy(logits, &[target]);
                    g.backward(loss);
                    let (seq_bits, loss_bits) = (bits(g.value(seq)), bits(g.value(loss)));
                    let mut grads = g.param_grads();
                    grads.sort_by_key(|(pid, _)| store.name(*pid).to_string());
                    let grads: Vec<_> = grads.iter().map(|(pid, gm)| (store.name(*pid).to_string(), bits(gm))).collect();
                    runs.push((seq_bits, loss_bits, grads));
                }
                let (fused, chain) = (&runs[0], &runs[1]);
                prop_assert_eq!(&fused.0, &chain.0, "seq, heads={} mask={}", heads, m.is_some());
                prop_assert_eq!(&fused.1, &chain.1, "loss, heads={} mask={}", heads, m.is_some());
                prop_assert_eq!(fused.2.len(), store.len(), "every parameter has a gradient");
                prop_assert_eq!(&fused.2, &chain.2, "param grads, heads={} mask={}", heads, m.is_some());
            }
        }
    }

    /// Simulator cycle counts are monotone in the *static* trip count too
    /// (the existing property covers input-driven dynamic bounds).
    #[test]
    fn simulator_cycles_monotone_in_static_trip_count(n in 2usize..48, extra in 1usize..16) {
        let small = llmulator_sim::simulate(&static_loop_program(n), &InputData::new())
            .expect("small")
            .total_cycles;
        let large = llmulator_sim::simulate(&static_loop_program(n + extra), &InputData::new())
            .expect("large")
            .total_cycles;
        prop_assert!(large > small, "{large} > {small}");
    }

    /// Grouping token sequences by fused-batch key is a permutation-invariant
    /// partition: every index lands in exactly one group, groups are
    /// key-homogeneous, and indices inside a group keep input order — the
    /// properties the fused `predict_batch` unpack step relies on to restore
    /// input order.
    #[test]
    fn grouping_by_length_is_a_permutation_partition(
        n in 0usize..40, max_len in 1usize..20, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lens: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..30)).collect();
        let keys: Vec<usize> = lens.iter().map(|&l| fusion_group_key(l, max_len)).collect();
        let groups = group_by_key(&keys);
        let mut seen = vec![false; n];
        let mut first_seen = Vec::new();
        for (key, idxs) in &groups {
            prop_assert!(!idxs.is_empty(), "no empty groups");
            first_seen.push(*key);
            let mut prev = None;
            for &i in idxs {
                prop_assert!(i < n && !seen[i], "index {} appears exactly once", i);
                seen[i] = true;
                prop_assert_eq!(keys[i], *key, "group is key-homogeneous");
                prop_assert!(prev.is_none_or(|p| p < i), "input order kept");
                prev = Some(i);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "partition covers every index");
        // Groups appear in first-occurrence order and keys are unique.
        let mut expected = Vec::new();
        for &k in &keys {
            if !expected.contains(&k) {
                expected.push(k);
            }
        }
        prop_assert_eq!(first_seen, expected);
    }
}

// The fused batch forward packs whole groups into shared GEMMs, so its
// bit-identity to the per-sample oracle gets its own (expensive) property:
// arbitrary mixed-length batches, decoded through the full prediction path,
// compared for exact equality at several thread counts.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fused_predict_batch_is_bit_identical_for_mixed_lengths(seed in 0u64..1000) {
        use llmulator::{ModelScale, NumericPredictor, PredictorConfig};
        use llmulator_token::NumericMode;

        let model = NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 24,
            seed,
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbead);
        let count = rng.gen_range(1usize..12);
        // Lengths straddle 0, the max_len truncation point, and everything
        // between; token ids straddle the vocabulary bound (clamped inside).
        let seqs: Vec<Vec<u32>> = (0..count)
            .map(|_| {
                let len = rng.gen_range(0usize..40);
                (0..len).map(|_| rng.gen_range(0u32..2000)).collect()
            })
            .collect();
        let oracle: Vec<_> = seqs.iter().map(|s| model.predict_tokens(s, None)).collect();
        for threads in [1usize, 2, 4] {
            let fused = model.predict_tokens_batch_threads(&seqs, threads);
            prop_assert_eq!(&fused, &oracle, "threads={}", threads);
        }
    }

    /// Acceptance pin for the serving API: `Session`-based engine
    /// predictions are bit-identical to
    /// `NumericPredictor::predict_tokens_batch_threads` for arbitrary
    /// batches — whether the batch arrives as one multi-input request or as
    /// many micro-batched single-input requests.
    #[test]
    fn engine_session_predictions_are_bit_identical_to_direct_batches(seed in 0u64..1000) {
        use llmulator::{
            EngineConfig, ModelScale, NumericPredictor, PredictInput, PredictRequest,
            PredictorConfig,
        };
        use llmulator_token::NumericMode;

        let model = NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 24,
            seed,
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let count = rng.gen_range(1usize..10);
        let seqs: Vec<Vec<u32>> = (0..count)
            .map(|_| {
                let len = rng.gen_range(0usize..40);
                (0..len).map(|_| rng.gen_range(0u32..2000)).collect()
            })
            .collect();
        let threads = rng.gen_range(1usize..4);
        let oracle = model.predict_tokens_batch_threads(&seqs, threads);

        let engine = EngineConfig::new().threads(threads).build();
        engine.register_predictor("default", model);
        let mut session = engine.session();

        // One request carrying the whole batch.
        let mut request = PredictRequest::new().threads(threads);
        for s in &seqs {
            request = request.input(PredictInput::Tokens(s.clone()));
        }
        let response = session.predict(&request).expect("serves");
        prop_assert_eq!(response.items.len(), oracle.len());
        for (item, pred) in response.items.iter().zip(&oracle) {
            for mv in &item.metrics {
                let mp = pred.metric(mv.metric);
                prop_assert_eq!(mv.value.to_bits(), mp.value.to_bits());
                prop_assert_eq!(mv.digits.as_deref(), Some(mp.digits.as_slice()));
                prop_assert_eq!(mv.confidence, Some(mp.confidence));
                prop_assert_eq!(mv.mean_confidence, Some(mp.mean_confidence));
            }
        }

        // The same batch as queued single-input requests, micro-batched the
        // way the serve daemon does it.
        let requests: Vec<PredictRequest> = seqs
            .iter()
            .map(|s| PredictRequest::tokens(s.clone()).threads(threads))
            .collect();
        let results = session.predict_micro_batch(&requests);
        prop_assert_eq!(results.len(), oracle.len());
        for (result, pred) in results.iter().zip(&oracle) {
            let response = result.as_ref().expect("serves");
            for mv in &response.items[0].metrics {
                let mp = pred.metric(mv.metric);
                prop_assert_eq!(mv.value.to_bits(), mp.value.to_bits());
                prop_assert_eq!(mv.digits.as_deref(), Some(mp.digits.as_slice()));
                prop_assert_eq!(mv.confidence, Some(mp.confidence));
            }
        }

        // `predict` is `predict_micro_batch` with a batch of one: the same
        // answer or error kind for predictor, baseline, unknown-model and
        // invalid requests.
        engine.register_baseline("timeloop", llmulator_baselines::Timeloop);
        let sample = Sample::profile(&static_loop_program(rng.gen_range(2usize..12)), None)
            .expect("profiles");
        let singles = [
            request,
            requests[0].clone(),
            PredictRequest::sample(sample).for_model("timeloop"),
            PredictRequest::tokens(seqs[0].clone()).for_model("ghost"),
            PredictRequest::tokens(seqs[0].clone()).metrics(vec![]),
            PredictRequest::tokens(seqs[0].clone()).for_model("timeloop"),
        ];
        for single in &singles {
            let alone = session.predict(single);
            let batched = session
                .predict_micro_batch(std::slice::from_ref(single))
                .pop()
                .expect("one answer");
            match (alone, batched) {
                (Ok(alone), Ok(batched)) => prop_assert_eq!(alone, batched),
                (Err(alone), Err(batched)) => prop_assert_eq!(alone.kind(), batched.kind()),
                (alone, batched) => prop_assert!(false, "{:?} vs {:?}", alone, batched),
            }
        }
    }
}

// The session prediction memo against memo-less answers, across hot swaps.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over a random request stream (repeated and fresh token sequences,
    /// metric subsets, multi-input requests, feedback, two model names and
    /// hot swaps at random points), every reply of one long-lived,
    /// memoizing session equals by bits the reply a fresh session (empty
    /// memo) gives the same request and the direct predictor's answer for
    /// each input, and carries the epoch its model name currently has.
    #[test]
    fn memoized_session_replies_match_fresh_sessions_across_hot_swaps(seed in 0u64..1000) {
        use llmulator::{
            Counter, EngineConfig, Feedback, ModelScale, NumericPredictor, PredictInput, PredictRequest,
            PredictResponse, PredictorConfig,
        };
        use llmulator_sim::Metric;
        use llmulator_token::NumericMode;

        let model = |seed: u64| {
            NumericPredictor::new(PredictorConfig {
                scale: ModelScale::Small,
                codec: DigitCodec::decimal(4),
                numeric_mode: NumericMode::Digits,
                max_len: 24,
                seed,
            })
        };
        type Bits = (Metric, u64, Option<Vec<u8>>, Option<u32>, Option<u32>);
        fn bits(response: &PredictResponse) -> Vec<Bits> {
            response
                .items
                .iter()
                .flat_map(|item| &item.metrics)
                .map(|mv| {
                    (
                        mv.metric,
                        mv.value.to_bits(),
                        mv.digits.clone(),
                        mv.confidence.map(f32::to_bits),
                        mv.mean_confidence.map(f32::to_bits),
                    )
                })
                .collect()
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3e30);
        let engine = EngineConfig::new().threads(2).feedback_capacity(16).build();
        // The version each name currently serves, for the direct oracle.
        let mut current: Vec<(&str, NumericPredictor)> =
            vec![("default", model(seed)), ("alt", model(seed ^ 1))];
        for (name, m) in &current {
            engine.register_predictor(*name, m.clone());
        }
        let random_seq = |rng: &mut StdRng| -> Vec<u32> {
            let len = rng.gen_range(0usize..32);
            (0..len).map(|_| rng.gen_range(0u32..2000)).collect()
        };
        let pool: Vec<Vec<u32>> = (0..6).map(|_| random_seq(&mut rng)).collect();
        let mut session = engine.session();
        for _ in 0..20 {
            if rng.gen_bool(0.2) {
                let slot = rng.gen_range(0..current.len());
                current[slot].1 = model(rng.gen());
                engine.register_predictor(current[slot].0, current[slot].1.clone());
            }
            let batch: Vec<PredictRequest> = (0..rng.gen_range(1usize..5))
                .map(|_| {
                    let inputs = rng.gen_range(1usize..4);
                    let mut request = PredictRequest::new();
                    for _ in 0..inputs {
                        let seq = if rng.gen_bool(0.7) {
                            pool[rng.gen_range(0..pool.len())].clone()
                        } else {
                            random_seq(&mut rng)
                        };
                        request = request.input(PredictInput::Tokens(seq));
                    }
                    if rng.gen_bool(0.3) {
                        request = request.for_model("alt");
                    }
                    if rng.gen_bool(0.5) {
                        let mut metrics = Metric::all().to_vec();
                        metrics.retain(|_| rng.gen_bool(0.6));
                        if metrics.is_empty() {
                            metrics.push(Metric::Cycles);
                        }
                        metrics.reverse();
                        request = request.metrics(metrics);
                    }
                    if rng.gen_bool(0.3) {
                        request = request.feedback(Feedback {
                            item: rng.gen_range(0..inputs),
                            metric: Metric::Cycles,
                            actual: f64::from(rng.gen_range(1u32..10_000)),
                            predicted: f64::from(rng.gen_range(1u32..10_000)),
                        });
                    }
                    if rng.gen_bool(0.3) {
                        request = request.threads(rng.gen_range(1usize..3));
                    }
                    request
                })
                .collect();
            let replies = session.predict_micro_batch(&batch);
            prop_assert_eq!(replies.len(), batch.len());
            for (request, reply) in batch.iter().zip(replies) {
                let reply = reply.expect("serves");
                let resolved = engine.resolve(request.model.as_deref()).expect("registered");
                prop_assert_eq!(reply.epoch, resolved.epoch, "served by the current version");
                let fresh = engine
                    .session()
                    .predict(&request.without_feedback())
                    .expect("serves");
                prop_assert_eq!(&reply.model, &fresh.model);
                prop_assert_eq!(reply.epoch, fresh.epoch);
                prop_assert_eq!(bits(&reply), bits(&fresh));

                let predictor = &current.iter().find(|(n, _)| *n == reply.model).expect("named").1;
                let metrics = request.metrics.clone().unwrap_or_else(|| Metric::all().to_vec());
                let direct: Vec<Bits> = request
                    .inputs
                    .iter()
                    .flat_map(|input| {
                        let PredictInput::Tokens(seq) = input else { unreachable!("token inputs") };
                        let pred = predictor.predict_tokens(seq, None);
                        metrics
                            .iter()
                            .map(|&m| {
                                let mp = pred.metric(m);
                                (
                                    m,
                                    mp.value.to_bits(),
                                    Some(mp.digits.clone()),
                                    Some(mp.confidence.to_bits()),
                                    Some(mp.mean_confidence.to_bits()),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                prop_assert_eq!(bits(&reply), direct);
            }
        }
        prop_assert!(
            engine.counters().get(Counter::MemoHits) > 0,
            "{:?}",
            engine.counters()
        );
    }
}

// Latency-histogram properties backing the serve transport's percentile
// reporting (`stats` responses, shutdown summaries, load-runner reports): the
// estimate brackets the exact nearest-rank percentile, merging is exact,
// and the summary is consistent with direct percentile queries.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any observation set and percentile `p`, the histogram estimate
    /// `e` brackets the exact nearest-rank percentile `t`:
    /// `t <= e <= min(2t + 2, max)` (log₂ buckets, capped at the exact
    /// observed maximum).
    #[test]
    fn latency_histogram_percentile_brackets_exact_nearest_rank(
        n in 1usize..200, seed in 0u64..1000, p in 0.0f64..100.0,
    ) {
        use llmulator::LatencyHistogram;
        let mut rng = StdRng::seed_from_u64(seed);
        // Magnitudes straddle many buckets: exponents 0..40.
        let mut values: Vec<u64> = (0..n)
            .map(|_| {
                let exp = rng.gen_range(0u32..40);
                rng.gen_range(0u64..(1u64 << exp).max(2))
            })
            .collect();
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record_micros(v);
        }
        values.sort_unstable();
        let max = *values.last().expect("n >= 1");
        prop_assert_eq!(h.count(), n as u64);
        prop_assert_eq!(h.max_micros(), Some(max));
        prop_assert_eq!(h.percentile_micros(100.0), Some(max), "p100 is exact");

        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        let exact = values[rank - 1];
        let e = h.percentile_micros(p).expect("non-empty");
        prop_assert!(e >= exact, "lower bound: {} >= {}", e, exact);
        prop_assert!(
            e <= (2 * exact + 2).min(max),
            "upper bound: {} <= min(2*{} + 2, {})", e, exact, max
        );
    }

    /// Percentile queries are monotone in `p`, and the fixed summary is
    /// exactly what the individual queries return.
    #[test]
    fn latency_histogram_summary_is_consistent_and_monotone(
        n in 0usize..120, seed in 0u64..1000,
    ) {
        use llmulator::LatencyHistogram;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e);
        let mut h = LatencyHistogram::new();
        for _ in 0..n {
            h.record_micros(rng.gen_range(0u64..1_000_000));
        }
        match h.summary() {
            None => {
                prop_assert_eq!(n, 0, "only the empty histogram has no summary");
                prop_assert_eq!(h.percentile_micros(50.0), None);
                prop_assert_eq!(h.max_micros(), None);
            }
            Some(s) => {
                prop_assert_eq!(s.count, n as u64);
                prop_assert_eq!(Some(s.p50_micros), h.percentile_micros(50.0));
                prop_assert_eq!(Some(s.p90_micros), h.percentile_micros(90.0));
                prop_assert_eq!(Some(s.p99_micros), h.percentile_micros(99.0));
                prop_assert_eq!(Some(s.max_micros), h.max_micros());
                prop_assert!(s.p50_micros <= s.p90_micros);
                prop_assert!(s.p90_micros <= s.p99_micros);
                prop_assert!(s.p99_micros <= s.max_micros);
                let mut prev = 0;
                for p in [0.0, 10.0, 37.5, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                    let e = h.percentile_micros(p).expect("non-empty");
                    prop_assert!(e >= prev, "monotone at p={}", p);
                    prev = e;
                }
            }
        }
    }

    /// Merging is exact: associative, commutative, with the empty
    /// histogram as identity — so per-worker histograms can combine in any
    /// order and the `stats` aggregates don't depend on worker
    /// scheduling.
    #[test]
    fn latency_histogram_merge_is_associative_commutative_with_identity(
        na in 0usize..60, nb in 0usize..60, nc in 0usize..60, seed in 0u64..1000,
    ) {
        use llmulator::LatencyHistogram;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e26e);
        let mut fill = |count: usize| {
            let mut h = LatencyHistogram::new();
            for _ in 0..count {
                let exp = rng.gen_range(0u32..63);
                h.record_micros(rng.gen_range(0u64..(1u64 << exp).max(2)));
            }
            h
        };
        let (a, b, c) = (fill(na), fill(nb), fill(nc));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "associative");
        prop_assert_eq!(left.count(), (na + nb + nc) as u64);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutative");

        let mut id = a.clone();
        id.merge(&LatencyHistogram::new());
        prop_assert_eq!(&id, &a, "empty histogram is the merge identity");
    }
}

/// A non-finite pooled vector (a degenerate forward pass) decodes to
/// all-zero digits on both decode paths, and to the top beam.
#[test]
fn non_finite_pooled_rows_decode_to_all_zero_digits() {
    use llmulator::{ModelScale, NumericPredictor, PredictorConfig};
    let model = NumericPredictor::new(PredictorConfig {
        scale: ModelScale::Small,
        max_len: 48,
        ..PredictorConfig::default()
    });
    let d = model.encoder().config().d_model;
    for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let pooled = Matrix::from_vec(1, d, vec![x; d]);
        let rows = model.decode_pooled_rows(&pooled);
        assert_eq!(rows, vec![model.decode_pooled(&pooled)], "{x}");
        for mp in &rows[0].per_metric {
            assert!(
                mp.digits.iter().all(|&digit| digit == 0),
                "{x}: {:?}",
                mp.digits
            );
            assert_eq!(mp.value, 0.0);
            assert_eq!(beam_search(&mp.distribution, 4)[0].digits, mp.digits);
        }
    }
}

/// The tape encoder of `llmulator_nn::Transformer::encode` with attention
/// written as the per-head chain `slice_cols → matmul_nt → scale →
/// add(mask) → softmax_rows → matmul → concat_cols`, using only public
/// `Graph` ops and parameters looked up by name. Returns `(seq, pooled)`.
fn unfused_encode<'s>(
    g: &mut llmulator_nn::Graph<'s>,
    store: &'s llmulator_nn::ParamStore,
    cfg: llmulator_nn::TransformerConfig,
    tokens: &[u32],
    mask: Option<&Matrix>,
) -> (llmulator_nn::NodeId, llmulator_nn::NodeId) {
    let param = |g: &mut llmulator_nn::Graph<'s>, name: &str| {
        let (pid, _) = store
            .iter()
            .find(|(pid, _)| store.name(*pid) == name)
            .expect("parameter exists");
        g.param(store, pid)
    };
    let n = tokens.len().min(cfg.max_len).max(1);
    let ids: Vec<usize> = tokens
        .iter()
        .take(n)
        .map(|&tok| (tok as usize).min(cfg.vocab_size - 1))
        .collect();
    let pos: Vec<usize> = (0..ids.len()).collect();
    let tok_table = param(g, "tok_embed");
    let pos_table = param(g, "pos_embed");
    let te = g.gather(tok_table, &ids);
    let pe = g.gather(pos_table, &pos);
    let mut x = g.add(te, pe);
    let mask = mask.map(|m| g.input(m.clone()));
    let hd = cfg.d_model / cfg.n_heads;
    for l in 0..cfg.n_layers {
        let p = |g: &mut llmulator_nn::Graph<'s>, name: &str| param(g, &format!("layer{l}.{name}"));
        let ln = g.layer_norm_rows(x);
        let gain = p(g, "ln1_gain");
        let bias = p(g, "ln1_bias");
        let ln = g.mul_row(ln, gain);
        let ln = g.add_row(ln, bias);
        let (wq, wk, wv) = (p(g, "wq"), p(g, "wk"), p(g, "wv"));
        let q = g.matmul(ln, wq);
        let k = g.matmul(ln, wk);
        let v = g.matmul(ln, wv);
        let mut head_outs = Vec::new();
        for h in 0..cfg.n_heads {
            let qh = g.slice_cols(q, h * hd, hd);
            let kh = g.slice_cols(k, h * hd, hd);
            let vh = g.slice_cols(v, h * hd, hd);
            let scores = g.matmul_nt(qh, kh);
            let scaled = g.scale(scores, 1.0 / (hd as f32).sqrt());
            let masked = match mask {
                Some(m) => g.add(scaled, m),
                None => scaled,
            };
            let attn = g.softmax_rows(masked);
            head_outs.push(g.matmul(attn, vh));
        }
        let cat = g.concat_cols(&head_outs);
        let wo = p(g, "wo");
        let proj = g.matmul(cat, wo);
        let mid = g.add(x, proj);
        let ln = g.layer_norm_rows(mid);
        let gain = p(g, "ln2_gain");
        let bias = p(g, "ln2_bias");
        let ln = g.mul_row(ln, gain);
        let ln = g.add_row(ln, bias);
        let (w1, b1) = (p(g, "w1"), p(g, "b1"));
        let hidden = g.matmul(ln, w1);
        let hidden = g.add_row(hidden, b1);
        let hidden = g.relu(hidden);
        let (w2, b2) = (p(g, "w2"), p(g, "b2"));
        let ffn = g.matmul(hidden, w2);
        let ffn = g.add_row(ffn, b2);
        x = g.add(mid, ffn);
    }
    let ln = g.layer_norm_rows(x);
    let gain = param(g, "final_gain");
    let bias = param(g, "final_bias");
    let scaled = g.mul_row(ln, gain);
    let seq = g.add_row(scaled, bias);
    let pooled = g.mean_rows(seq);
    (seq, pooled)
}

/// An `rows × cols` matrix whose entries mix finite normals with `±0.0`,
/// `±inf`, NaN and subnormals.
fn special_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0u32..400) {
            0..=19 => 0.0,
            20..=39 => -0.0,
            40 => f32::INFINITY,
            41 => f32::NEG_INFINITY,
            42 => f32::NAN,
            43..=52 => f32::MIN_POSITIVE * rng.gen_range(-0.99f32..0.99),
            _ => rng.gen_range(-3.0f32..3.0),
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Entry bit patterns with every NaN mapped to one canonical NaN: Rust
/// leaves the sign and payload of a NaN that arithmetic produces
/// unspecified, so NaN compares as a class and everything else by bits.
fn nan_class_bits(x: &Matrix) -> Vec<u32> {
    x.data()
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

fn static_loop_program(n: usize) -> Program {
    let op = OperatorBuilder::new("statloop")
        .array_param("a", [64])
        .loop_nest(&[("i", n)], |idx| {
            vec![Stmt::assign(
                LValue::store("a", vec![idx[0].clone()]),
                Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
            )]
        })
        .build();
    Program::single_op(op)
}

fn dyn_loop_program() -> Program {
    let op = OperatorBuilder::new("dynloop")
        .array_param("a", [64])
        .scalar_param("n")
        .dyn_loop_nest(&[("i", Expr::var("n"))], |idx| {
            vec![Stmt::assign(
                LValue::store("a", vec![idx[0].clone()]),
                Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
            )]
        })
        .build();
    Program::single_op(op)
}

fn hls_area(n: usize, pragma: llmulator_ir::LoopPragma) -> f64 {
    let op = OperatorBuilder::new("k")
        .array_param("a", [n])
        .loop_nest_with_pragma(&[("i", n)], pragma, |idx| {
            vec![Stmt::assign(
                LValue::store("a", vec![idx[0].clone()]),
                Expr::load("a", vec![idx[0].clone()]) * Expr::int(3),
            )]
        })
        .build();
    llmulator_hls::compile(&Program::single_op(op))
        .total
        .area_um2
}

// Online-calibration invariants: the A/B router is a deterministic
// weighted partition of the request-id space, and the per-model
// scorecards reconcile exactly with what the serve pool reports.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any two weighted variants, routing is total (every key lands on
    /// a registered variant), sticky (same key, same variant — across
    /// router clones too), and the long-run traffic shares stay within a
    /// 6-sigma binomial envelope of the configured weights.
    #[test]
    fn ab_router_is_a_deterministic_weighted_partition(
        wa in 1u32..8, wb in 0u32..8, seed in 0u64..1000,
    ) {
        use llmulator::{route_key, AbRouter};
        let router = AbRouter::new(vec![("a".into(), wa), ("b".into(), wb)])
            .expect("positive total weight");
        let clone = router.clone();
        let n = 4096usize;
        let mut to_a = 0usize;
        for i in 0..n {
            let id = format!("req-{seed}-{i}");
            let key = route_key(id.as_bytes());
            let pick = router.pick(key);
            prop_assert!(pick == "a" || pick == "b", "partition is total: {}", pick);
            prop_assert_eq!(pick, router.pick(key), "sticky per key");
            prop_assert_eq!(pick, clone.pick(key), "clones agree");
            if pick == "a" {
                to_a += 1;
            }
        }
        let p = f64::from(wa) / f64::from(wa + wb);
        let expected = n as f64 * p;
        let tolerance = 6.0 * (n as f64 * p * (1.0 - p)).sqrt() + 1.0;
        prop_assert!(
            (to_a as f64 - expected).abs() <= tolerance,
            "share within 6 sigma of the weights: {}/{} to `a`, expected {:.0} +/- {:.0}",
            to_a, n, expected, tolerance
        );
    }

    /// Scorecard counters reconcile with the pool: across any worker count
    /// and request mix, the summed per-model `ok_requests` equals the
    /// pool's served count, and per-model `feedback_count` equals the
    /// feedback observations submitted against that model.
    #[test]
    fn scorecards_reconcile_with_pool_counters(
        workers in 1usize..4, count in 1usize..12, seed in 0u64..200,
    ) {
        use llmulator::{
            Counter, EngineConfig, Feedback, ModelScale, NumericPredictor, PoolConfig, PredictRequest,
            PredictorConfig, ServeJob, ServePool,
        };
        use llmulator_sim::Metric;
        use llmulator_token::NumericMode;
        use std::sync::{mpsc, Arc};

        let engine = Arc::new(EngineConfig::new().build());
        engine.register_predictor("default", NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 16,
            seed,
        }));
        let mut pool = ServePool::start(Arc::clone(&engine), PoolConfig {
            workers,
            max_batch: 4,
            max_queue: 64,
            default_timeout: None,
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xab);
        let mut feedback_sent = 0u64;
        let (tx, rx) = mpsc::channel();
        for k in 0..count {
            let mut request = PredictRequest::tokens(vec![k as u32, 5, 9]);
            if rng.gen_bool(0.5) {
                feedback_sent += 1;
                request = request.feedback(Feedback {
                    item: 0,
                    metric: Metric::Cycles,
                    actual: 100.0 + k as f64,
                    predicted: 40.0,
                });
            }
            let tx = tx.clone();
            pool.submit(ServeJob::new(request, move |result, _latency| {
                let _ = tx.send(result.is_ok());
            }));
        }
        drop(tx);
        let ok_seen = rx.iter().filter(|&ok| ok).count() as u64;
        pool.drain();
        let served = engine.counters().get(Counter::Served);
        prop_assert_eq!(ok_seen, count as u64, "every request answered ok");
        prop_assert_eq!(served, count as u64);

        let cards = engine.scoreboard().snapshot();
        let total_ok: u64 = cards.iter().map(|c| c.ok_requests).sum();
        prop_assert_eq!(total_ok, served, "scorecards cover every ok response");
        let default = cards.iter().find(|c| c.model == "default").expect("touched");
        prop_assert_eq!(default.ok_requests, count as u64);
        prop_assert_eq!(default.feedback_count, feedback_sent);
        prop_assert_eq!(default.window_len as u64, feedback_sent.min(
            engine.scoreboard().window() as u64
        ));
    }
}
