//! In-process replay of a request stream through the public functions the
//! daemon's request path calls: `serde_json` parse → `parse_program` →
//! tokenize → `forward`/`forward_packed` → `decode_pooled_rows_width` →
//! reply encode, plus whole `Session::predict` / `predict_micro_batch`.
//! Also the bit-identity oracle for daemon replies.

use crate::speed::Speed;
use crate::trace::{Span, Tracer};
use llmulator::{
    Engine, EngineConfig, NumericPredictor, PredictInput, PredictRequest, PredictResponse,
    SegmentedText,
};
use llmulator_ir::InputData;
use llmulator_nn::Scratch;
use llmulator_sim::Metric;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Requests per replayed micro-batch (one DSE generation).
pub const GENERATION: usize = 16;

/// Parses one request line the way the daemon's front end does, for the
/// subset of fields this benchmark sends.
pub fn parse_request(line: &str) -> Result<PredictRequest, String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("request line: {e}"))?;
    let mut request = PredictRequest::new();
    if let Some(tokens) = crate::field(&v, "tokens").and_then(Value::as_array) {
        let tokens = tokens
            .iter()
            .map(|t| crate::number(t).map(|x| x as u32))
            .collect::<Option<Vec<u32>>>()
            .ok_or("non-numeric token")?;
        request = request.input(PredictInput::Tokens(tokens));
    } else if let Some(program) = crate::field(&v, "program").and_then(Value::as_str) {
        let inputs = crate::field(&v, "inputs")
            .and_then(Value::as_object)
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|(k, x)| Some((k.clone(), crate::number(x)? as i64)))
                    .collect()
            })
            .unwrap_or_default();
        request = request.input(PredictInput::Source {
            program: program.to_string(),
            inputs,
        });
    } else {
        return Err(format!("request without tokens or program: {line}"));
    }
    if let Some(metrics) = crate::field(&v, "metrics").and_then(Value::as_array) {
        let metrics = metrics
            .iter()
            .map(|m| match m.as_str() {
                Some("cycles") => Ok(Metric::Cycles),
                Some("power") => Ok(Metric::Power),
                Some("area") => Ok(Metric::Area),
                Some("ff") => Ok(Metric::FlipFlops),
                _ => Err(format!("unknown metric {m}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        request = request.metrics(metrics);
    }
    if let Some(fb) = crate::field(&v, "feedback") {
        let actual = crate::field(fb, "actual").and_then(crate::number);
        let predicted = crate::field(fb, "predicted").and_then(crate::number);
        if let (Some(actual), Some(predicted)) = (actual, predicted) {
            request = request.feedback(llmulator::Feedback {
                item: 0,
                metric: Metric::Cycles,
                actual,
                predicted,
            });
        }
    }
    Ok(request)
}

fn metric_name(m: Metric) -> &'static str {
    match m {
        Metric::Power => "power",
        Metric::Area => "area",
        Metric::FlipFlops => "ff",
        Metric::Cycles => "cycles",
    }
}

/// The `predictions` array the daemon renders for a response.
pub fn predictions_json(response: &PredictResponse) -> Value {
    Value::Array(
        response.items[0]
            .metrics
            .iter()
            .map(|mv| {
                serde_json::json!({
                    "metric": metric_name(mv.metric),
                    "value": mv.value,
                    "digits": mv.digits.clone().unwrap_or_default(),
                    "confidence": f64::from(mv.confidence.unwrap_or(0.0)),
                    "mean_confidence": f64::from(mv.mean_confidence.unwrap_or(0.0)),
                })
            })
            .collect(),
    )
}

/// An engine serving `model` as `default`, like the daemon's.
pub fn engine_for(model: NumericPredictor) -> Engine {
    let engine = EngineConfig::new().build();
    engine.register_predictor("default", model);
    engine
}

/// Checks daemon replies bit for bit against in-process `Session::predict`
/// on the same model. Returns the number checked.
pub fn verify_replies(engine: &Engine, pairs: &[(&str, &str)]) -> Result<usize, String> {
    let mut session = engine.session();
    for (line, reply) in pairs {
        let request = parse_request(line)?;
        let expected = session
            .predict(&request)
            .map_err(|e| format!("in-process predict failed: {e}"))?;
        let reply = serde_json::parse_value(reply.trim()).map_err(|e| format!("reply: {e}"))?;
        let got = crate::field(&reply, "predictions");
        if got != Some(&predictions_json(&expected)) {
            return Err(format!(
                "daemon reply differs from in-process Session::predict\n  request: {line}\n  reply:   {reply}"
            ));
        }
    }
    Ok(pairs.len())
}

/// Per-request CPU time, ms, of the daemon's request path replayed in
/// process on this thread: front-end parse, `Session::predict` and reply
/// encode. Each request is followed by one `speed` slice, so
/// `speed.slices[mark..]` pairs with the returned times. Cycles through
/// `lines` until at least `min` requests have run and `budget` has passed.
pub fn service_cpu_ms(
    engine: &Engine,
    lines: &[&str],
    min: usize,
    budget: Duration,
    speed: &mut Speed,
) -> Result<Vec<f64>, String> {
    if lines.is_empty() {
        return Err("no replies to replay".into());
    }
    let mut session = engine.session();
    let mut ms = Vec::new();
    let start = Instant::now();
    for line in lines.iter().cycle() {
        if ms.len() >= min && start.elapsed() >= budget {
            break;
        }
        let (reply, t) = crate::cpu::time_ms(|| -> Result<String, String> {
            let request = parse_request(line)?;
            let response = session
                .predict(&request)
                .map_err(|e| format!("Session::predict: {e}"))?;
            Ok(predictions_json(&response).to_string())
        });
        std::hint::black_box(reply?);
        speed.slice();
        ms.push(t);
    }
    Ok(ms)
}

/// Per-layer figures of one replay.
pub struct Replayed {
    pub metrics: BTreeMap<&'static str, f64>,
    pub requests: usize,
}

/// Approximate encoder + head FLOPs for one sequence at effective length
/// `n`: matmul and attention terms only (layer norms and softmax excluded),
/// computed from the model's shapes rather than counted.
fn forward_flops(model: &NumericPredictor, n: usize) -> f64 {
    let cfg = model.encoder().config();
    let (nf, d, dff) = (n as f64, cfg.d_model as f64, cfg.d_ff as f64);
    let per_layer = 8.0 * nf * d * d + 4.0 * nf * nf * d + 4.0 * nf * d * dff;
    let head_out = (model.config().codec.width * model.config().codec.base as usize) as f64;
    cfg.n_layers as f64 * per_layer + 8.0 * d * head_out
}

/// Replays `lines` in process, recording one span per stage, and checks
/// that the staged path, `Session::predict` and `predict_micro_batch` agree
/// exactly.
pub fn replay(
    model: &NumericPredictor,
    lines: &[&str],
    origin: Instant,
) -> Result<(Replayed, Vec<Span>), String> {
    let mut tracer = Tracer::new(true, origin, 0);
    let engine = engine_for(model.clone());
    let mut session = engine.session();
    let mut scratch = Scratch::new();
    let max_len = model.config().max_len;
    let beam = model.beam_width();
    let mut tokens_total = 0usize;
    let mut truncated = 0usize;
    let mut sources = 0usize;
    let mut flops = 0.0f64;
    let mut requests = Vec::with_capacity(lines.len());
    let mut token_seqs = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let req = i as u64;
        let staged = tracer.span("replay.request", req, |t| -> Result<_, String> {
            let request = t.span("serve.parse", req, |_| parse_request(line))?;
            let tokens = match &request.inputs[0] {
                PredictInput::Tokens(tokens) => tokens.clone(),
                PredictInput::Sample(sample) => model.tokenize_sample(sample).tokens,
                PredictInput::Source { program, inputs } => {
                    let (program, data) = t.span("ir.parse", req, |_| {
                        let program = llmulator_ir::parse::parse_program(program)
                            .map_err(|e| format!("parse_program: {e}"))?;
                        program.validate().map_err(|e| format!("validate: {e}"))?;
                        let mut data = InputData::new();
                        for (name, value) in inputs {
                            data.bind(name.as_str(), *value);
                        }
                        Ok::<_, String>((program, data))
                    })?;
                    t.span("token.tokenize", req, |_| {
                        SegmentedText::from_program(&program, Some(&data), None)
                            .tokenize(model.tokenizer(), max_len)
                            .tokens
                    })
                }
            };
            let preds = t.span("nn.forward", req, |t| {
                let (seq, pooled) = llmulator_nn::forward(
                    model.encoder(),
                    model.store(),
                    &tokens,
                    None,
                    &mut scratch,
                );
                let preds = t.span("model.decode", req, |_| {
                    model.decode_pooled_rows_width(&pooled, beam)
                });
                scratch.recycle(seq);
                scratch.recycle(pooled);
                preds
            });
            let metrics = request
                .metrics
                .clone()
                .unwrap_or_else(|| Metric::all().to_vec());
            let encoded = t.span("serve.encode", req, |_| {
                let predictions: Vec<Value> = metrics
                    .iter()
                    .map(|&m| {
                        let mp = preds[0].metric(m);
                        serde_json::json!({
                            "metric": metric_name(m),
                            "value": mp.value,
                            "digits": mp.digits.clone(),
                            "confidence": f64::from(mp.confidence),
                            "mean_confidence": f64::from(mp.mean_confidence),
                        })
                    })
                    .collect();
                let reply = serde_json::json!({
                    "id": format!("r{req}"),
                    "ok": true,
                    "model": "default",
                    "epoch": 0u64,
                    "predictions": Value::Array(predictions.clone()),
                });
                (reply.to_string(), Value::Array(predictions))
            });
            Ok((request, tokens, encoded.1))
        })?;
        let (request, tokens, staged_predictions) = staged;
        if let PredictInput::Source { program, inputs } = &request.inputs[0] {
            // Untruncated length, outside any span.
            sources += 1;
            let program = llmulator_ir::parse::parse_program(program).map_err(|e| e.to_string())?;
            let mut data = InputData::new();
            for (name, value) in inputs {
                data.bind(name.as_str(), *value);
            }
            let full = SegmentedText::from_program(&program, Some(&data), None)
                .tokenize(model.tokenizer(), usize::MAX)
                .tokens
                .len();
            truncated += usize::from(full > max_len);
        }
        tokens_total += tokens.len();
        flops += forward_flops(model, model.encoder().config().effective_len(tokens.len()));
        requests.push((request, staged_predictions));
        token_seqs.push(tokens);
    }
    // Whole requests in a pass of their own, so each runs after the
    // previous request as its staged counterpart did, not on caches its
    // own staged run has just warmed.
    let requests = requests
        .into_iter()
        .zip(lines)
        .enumerate()
        .map(|(i, ((request, staged), line))| {
            let whole = tracer
                .span("engine.predict", i as u64, |_| session.predict(&request))
                .map_err(|e| format!("Session::predict: {e}"))?;
            if predictions_json(&whole) != staged {
                return Err(format!(
                    "staged request path differs from Session::predict on `{line}`"
                ));
            }
            Ok((request, whole))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Whole generations: the fused micro-batch and its packed forward.
    let mut packed_seqs = 0usize;
    for (g, chunk) in requests.chunks(GENERATION).enumerate() {
        let req = g as u64;
        let batch: Vec<PredictRequest> = chunk.iter().map(|(r, _)| r.without_feedback()).collect();
        let fused = tracer.span("engine.predict_micro_batch", req, |_| {
            session.predict_micro_batch(&batch)
        });
        for ((_, single), fused) in chunk.iter().zip(fused) {
            let fused = fused.map_err(|e| format!("predict_micro_batch: {e}"))?;
            if predictions_json(&fused) != predictions_json(single) {
                return Err("predict_micro_batch differs from per-request Session::predict".into());
            }
        }
        let seqs = &token_seqs[g * GENERATION..g * GENERATION + chunk.len()];
        let cfg = *model.encoder().config();
        let mut groups: BTreeMap<usize, Vec<&[u32]>> = BTreeMap::new();
        for s in seqs {
            groups
                .entry(cfg.effective_len(s.len()))
                .or_default()
                .push(s);
        }
        tracer.span("nn.forward_packed", req, |_| {
            for group in groups.values() {
                let (seq, pooled) = llmulator_nn::forward_packed(
                    model.encoder(),
                    model.store(),
                    group,
                    &mut scratch,
                );
                scratch.recycle(seq);
                scratch.recycle(pooled);
            }
        });
        packed_seqs += seqs.len();
    }

    let mut spans = Vec::new();
    tracer.drain_into(&mut spans);
    let layers = crate::trace::summarize(&spans);
    let n = lines.len().max(1) as f64;
    let per_req = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s / n * 1e6);
    let mut m = BTreeMap::new();
    let predict_us = layers.get("engine.predict").map_or(0.0, |l| l.mean_us());
    let batch_per_req_us = layers
        .get("engine.predict_micro_batch")
        .map_or(0.0, |l| l.total_s / n * 1e6);
    let stage_sum = per_req("ir.parse")
        + per_req("token.tokenize")
        + per_req("nn.forward")
        + per_req("model.decode");
    m.insert("serve.parse_us", per_req("serve.parse"));
    m.insert("serve.encode_us", per_req("serve.encode"));
    m.insert("ir.parse_us", per_req("ir.parse"));
    m.insert("token.tokenize_us", per_req("token.tokenize"));
    m.insert("token.tokens_per_req", tokens_total as f64 / n);
    m.insert(
        "token.truncated_frac",
        if sources == 0 {
            0.0
        } else {
            truncated as f64 / sources as f64
        },
    );
    m.insert("nn.forward_ms", per_req("nn.forward") / 1e3);
    m.insert(
        "nn.forward_packed_ms_per_seq",
        layers.get("nn.forward_packed").map_or(0.0, |l| l.total_s) / packed_seqs.max(1) as f64
            * 1e3,
    );
    // The forward span encloses its decode child, so the encoder's time is
    // the span's self time.
    let forward_self_s = layers.get("nn.forward").map_or(0.0, |l| l.self_s);
    m.insert("nn.forward_gflops", flops / forward_self_s.max(1e-12) / 1e9);
    m.insert("model.decode_us", per_req("model.decode"));
    m.insert("engine.predict_us", predict_us);
    m.insert("engine.stage_sum_us", stage_sum);
    m.insert("engine.unexplained_us", predict_us - stage_sum);
    m.insert("engine.batch_per_req_us", batch_per_req_us);
    m.insert(
        "engine.fusion_gain",
        if batch_per_req_us > 0.0 {
            predict_us / batch_per_req_us
        } else {
            0.0
        },
    );
    Ok((
        Replayed {
            metrics: m,
            requests: lines.len(),
        },
        spans,
    ))
}
