//! The running example of the paper (Fig. 1): "an imaginary signal
//! processing application with input sample period 200 ms, reconfigurable
//! filter coefficients and a feedback loop".
//!
//! The paper specifies the processes, rates, the sporadic `CoefB`
//! (2-per-700 ms, blackboard into `FilterB`) and several facts about the
//! derived task graph (Fig. 3) and its 2-processor schedule (Fig. 4). The
//! channel topology is only partially drawn; this reconstruction is chosen
//! to satisfy every stated fact:
//!
//! * `InputA` has functional priority over `FilterA` **and** `NormA`, and
//!   the derived `InputA[1] → NormA[1]` edge is *redundant* (a path via
//!   `FilterA[1]` exists) — so `FilterA → NormA` is a channel;
//! * `FilterB[1]` waits for `InputA[1]` (§IV example) — so `InputA`
//!   feeds `FilterB` and has priority over it;
//! * the feedback loop is `NormA → FilterA` (blackboard), making the
//!   process-network graph cyclic while `FP` stays acyclic;
//! * `OutputB` runs at 100 ms against `FilterB`'s 200 ms, so it re-reads a
//!   blackboard.

use fppn_core::{
    BehaviorBank, ChannelId, ChannelKind, EventSpec, Fppn, FppnBuilder, JobCtx, PortId,
    ProcessId, ProcessSpec, Value,
};
use fppn_taskgraph::WcetModel;
use fppn_time::TimeQ;

/// Process and channel ids of the Fig. 1 network.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Ids {
    /// `InputA`, 200 ms.
    pub input_a: ProcessId,
    /// `FilterA`, 100 ms.
    pub filter_a: ProcessId,
    /// `FilterB`, 200 ms.
    pub filter_b: ProcessId,
    /// `NormA`, 200 ms.
    pub norm_a: ProcessId,
    /// `OutputA`, 200 ms.
    pub output_a: ProcessId,
    /// `OutputB`, 100 ms.
    pub output_b: ProcessId,
    /// `CoefB`, sporadic 2 per 700 ms.
    pub coef_b: ProcessId,
    /// `InputA → FilterA` FIFO.
    pub c_in_a: ChannelId,
    /// `InputA → FilterB` FIFO.
    pub c_in_b: ChannelId,
    /// `FilterA → NormA` FIFO.
    pub c_a_norm: ChannelId,
    /// `NormA → FilterA` blackboard (the feedback loop).
    pub c_feedback: ChannelId,
    /// `NormA → OutputA` FIFO.
    pub c_norm_out: ChannelId,
    /// `CoefB → FilterB` blackboard (the reconfigurable coefficient).
    pub c_coef: ChannelId,
    /// `FilterB → OutputB` blackboard.
    pub c_b_out: ChannelId,
}

/// Builds the Fig. 1 network with realistic signal-processing behaviors.
///
/// `InputA` reads external input samples (port 0) when provided, otherwise
/// synthesizes a deterministic test signal. `OutputA`/`OutputB` write the
/// external output ports ("Output Channel 1/2" of the figure).
pub fn fig1_network() -> (Fppn, BehaviorBank, Fig1Ids) {
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();

    let input_a = b.process(
        ProcessSpec::new("InputA", EventSpec::periodic(ms(200))).with_input("input"),
    );
    let filter_b = b.process(ProcessSpec::new("FilterB", EventSpec::periodic(ms(200))));
    let filter_a = b.process(ProcessSpec::new("FilterA", EventSpec::periodic(ms(100))));
    let output_a = b.process(
        ProcessSpec::new("OutputA", EventSpec::periodic(ms(200))).with_output("out1"),
    );
    let norm_a = b.process(ProcessSpec::new("NormA", EventSpec::periodic(ms(200))));
    let coef_b = b.process(ProcessSpec::new("CoefB", EventSpec::sporadic(2, ms(700))));
    let output_b = b.process(
        ProcessSpec::new("OutputB", EventSpec::periodic(ms(100))).with_output("out2"),
    );

    let c_in_a = b.channel("InputA->FilterA", input_a, filter_a, ChannelKind::Fifo);
    let c_in_b = b.channel("InputA->FilterB", input_a, filter_b, ChannelKind::Fifo);
    let c_a_norm = b.channel("FilterA->NormA", filter_a, norm_a, ChannelKind::Fifo);
    let c_feedback = b.channel("NormA->FilterA", norm_a, filter_a, ChannelKind::Blackboard);
    let c_norm_out = b.channel("NormA->OutputA", norm_a, output_a, ChannelKind::Fifo);
    let c_coef = b.channel("CoefB->FilterB", coef_b, filter_b, ChannelKind::Blackboard);
    let c_b_out = b.channel("FilterB->OutputB", filter_b, output_b, ChannelKind::Blackboard);

    // Functional priorities (arrows of Fig. 1). InputA → NormA is the
    // explicit extra relation that yields the redundant Fig. 3 edge.
    b.priority(input_a, filter_a);
    b.priority(input_a, filter_b);
    b.priority(input_a, norm_a);
    b.priority(filter_a, norm_a);
    b.priority(norm_a, output_a);
    b.priority(coef_b, filter_b);
    b.priority(filter_b, output_b);

    // ----- behaviors -----
    // InputA: sample source. Splits the signal to both filter paths.
    b.behavior(input_a, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let k = ctx.k() as i64;
            let sample = match ctx.read_input(PortId::from_index(0)) {
                Some(Value::Float(v)) => v,
                Some(Value::Int(v)) => v as f64,
                _ => ((k * 37 + 11) % 101 - 50) as f64 / 10.0, // synthetic
            };
            ctx.write(c_in_a, Value::Float(sample));
            ctx.write(c_in_b, Value::Float(sample));
        })
    });
    // FilterA: first-order IIR low-pass whose gain is modulated by the
    // normalization feedback. Runs at 2x the input rate, so every other
    // job sees an empty FIFO and coasts on its state.
    b.behavior(filter_a, move || {
        let mut state = 0.0f64;
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let gain = match ctx.read_value(c_feedback) {
                Value::Float(g) => g,
                _ => 0.5,
            };
            if let Some(Value::Float(x)) = ctx.read(c_in_a) {
                state += gain * (x - state);
            }
            ctx.write(c_a_norm, Value::Float(state));
        })
    });
    // NormA: drains the FilterA queue (2 samples per period), computes a
    // normalization coefficient, feeds it back and forwards the mean.
    b.behavior(norm_a, move || {
        let mut energy = 1.0f64;
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let mut sum = 0.0;
            let mut count = 0u32;
            while let Some(Value::Float(v)) = ctx.read(c_a_norm) {
                sum += v;
                count += 1;
            }
            let mean = if count > 0 { sum / count as f64 } else { 0.0 };
            energy = 0.9 * energy + 0.1 * (mean * mean);
            let coeff = 1.0 / (1.0 + energy);
            ctx.write(c_feedback, Value::Float(coeff));
            ctx.write(c_norm_out, Value::Float(mean));
        })
    });
    // OutputA: sink for output channel 1.
    b.behavior(output_a, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let v = ctx.read_value(c_norm_out);
            ctx.write_output(PortId::from_index(0), v);
        })
    });
    // CoefB: sporadic reconfiguration of FilterB's coefficient.
    b.behavior(coef_b, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let c = 0.25 + 0.5 / (1.0 + ctx.k() as f64);
            ctx.write(c_coef, Value::Float(c));
        })
    });
    // FilterB: scales the input by the (reconfigurable) coefficient.
    b.behavior(filter_b, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let coef = match ctx.read_value(c_coef) {
                Value::Float(c) => c,
                _ => 1.0,
            };
            if let Some(Value::Float(x)) = ctx.read(c_in_b) {
                ctx.write(c_b_out, Value::Float(coef * x));
            }
        })
    });
    // OutputB: 100 ms sink re-reading the 200 ms blackboard.
    b.behavior(output_b, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let v = ctx.read_value(c_b_out);
            ctx.write_output(PortId::from_index(0), v);
        })
    });

    let (net, bank) = b.build().expect("Fig. 1 network is well-formed");
    let ids = Fig1Ids {
        input_a,
        filter_a,
        filter_b,
        norm_a,
        output_a,
        output_b,
        coef_b,
        c_in_a,
        c_in_b,
        c_a_norm,
        c_feedback,
        c_norm_out,
        c_coef,
        c_b_out,
    };
    (net, bank, ids)
}

/// The Fig. 3 WCET setting: `C_i = 25 ms` for every process.
pub fn fig1_wcet() -> WcetModel {
    WcetModel::uniform(TimeQ::from_ms(25))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{run_zero_delay, JobOrdering, SporadicTrace, Stimuli};
    use fppn_taskgraph::{derive_task_graph, derive_task_graph_unreduced};

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    #[test]
    fn network_is_valid_and_cyclic_in_channels() {
        let (net, _, ids) = fig1_network();
        assert_eq!(net.process_count(), 7);
        assert_eq!(net.channels().len(), 7);
        // Channel graph has the FilterA <-> NormA cycle; FP is acyclic.
        assert!(net.has_priority(ids.filter_a, ids.norm_a));
        assert!(net.related(ids.norm_a, ids.filter_a));
        assert_eq!(net.user_of(ids.coef_b), Some(ids.filter_b));
    }

    #[test]
    fn fig3_task_graph_structure() {
        let (net, _, ids) = fig1_network();
        let d = derive_task_graph(&net, &fig1_wcet()).unwrap();
        assert_eq!(d.hyperperiod, ms(200));
        assert_eq!(d.graph.job_count(), 10);

        let find = |p, k| d.graph.find(p, k).unwrap();
        let job = |p, k| d.graph.job(find(p, k)).clone();
        // Parameters (A_i, D_i, C_i) exactly as labeled in Fig. 3.
        let expect = [
            (job(ids.input_a, 1), (0, 200)),
            (job(ids.filter_a, 1), (0, 100)),
            (job(ids.filter_a, 2), (100, 200)),
            (job(ids.filter_b, 1), (0, 200)),
            (job(ids.norm_a, 1), (0, 200)),
            (job(ids.output_a, 1), (0, 200)),
            (job(ids.output_b, 1), (0, 100)),
            (job(ids.output_b, 2), (100, 200)),
            (job(ids.coef_b, 1), (0, 200)),
            (job(ids.coef_b, 2), (0, 200)),
        ];
        for (j, (a, dl)) in expect {
            assert_eq!(j.arrival, ms(a), "{j}");
            assert_eq!(j.deadline, ms(dl), "{j}");
            assert_eq!(j.wcet, ms(25), "{j}");
        }
        // CoefB is represented by its 200 ms server with 2 jobs.
        let server = d.server(ids.coef_b).unwrap();
        assert_eq!(server.period, ms(200));
        assert_eq!(server.burst, 2);
        assert_eq!(server.job_deadline, ms(500)); // 700 - 200

        // "InputA ... is joined to both of them. However, in the latter
        // case the edge is redundant": the reduced graph has no direct
        // InputA[1] -> NormA[1] edge but keeps the path.
        let i1 = find(ids.input_a, 1);
        let n1 = find(ids.norm_a, 1);
        assert!(!d.graph.has_edge(i1, n1));
        assert!(d.graph.is_reachable(i1, n1));
        // The unreduced graph has it directly.
        let full = derive_task_graph_unreduced(&net, &fig1_wcet()).unwrap();
        let i1f = full.graph.find(ids.input_a, 1).unwrap();
        let n1f = full.graph.find(ids.norm_a, 1).unwrap();
        assert!(full.graph.has_edge(i1f, n1f));
        assert_eq!(d.reduced_edges, 3);

        // Server jobs precede the user job; FilterB[1] waits for InputA[1].
        let c1 = find(ids.coef_b, 1);
        let c2 = find(ids.coef_b, 2);
        let fb1 = find(ids.filter_b, 1);
        assert!(d.graph.is_reachable(c1, fb1));
        assert!(d.graph.is_reachable(c2, fb1));
        assert!(d.graph.is_reachable(i1, fb1));
    }

    #[test]
    fn zero_delay_execution_is_deterministic_and_produces_signal() {
        let (net, bank, ids) = fig1_network();
        let mut stimuli = Stimuli::new();
        stimuli.arrivals(ids.coef_b, SporadicTrace::new(vec![ms(100), ms(350)]));
        let mut b1 = bank.instantiate();
        let r1 =
            run_zero_delay(&net, &mut b1, &stimuli, ms(1000), JobOrdering::MinRankFirst).unwrap();
        let mut b2 = bank.instantiate();
        let r2 =
            run_zero_delay(&net, &mut b2, &stimuli, ms(1000), JobOrdering::MaxRankFirst).unwrap();
        assert_eq!(r1.observables.diff(&r2.observables), None);
        // OutputB produced 10 samples (100 ms x 1000 ms horizon).
        let out2 = r1
            .observables
            .outputs
            .iter()
            .find(|((p, _), _)| *p == ids.output_b)
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(out2.len(), 10);
        // After CoefB fired and FilterB ran, outputs carry scaled samples.
        assert!(out2.iter().any(|(_, v)| matches!(v, Value::Float(_))));
    }
}
