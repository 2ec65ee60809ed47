//! §V-B headline numbers for the FMS case study.

use fppn_apps::{fms_network, fms_sporadics, fms_wcet, FmsVariant};
use fppn_core::{ChannelKind, EventKind};
use fppn_taskgraph::{derive_task_graph, load_with, necessary_condition, AsapAlap};
use fppn_time::TimeQ;

#[test]
fn fms_network_matches_figure_7_structure() {
    for variant in [FmsVariant::Original, FmsVariant::Reduced] {
        let (net, _, ids) = fms_network(variant);

        // Fig. 7: 5 periodic functional processes plus 7 sporadic
        // configuration processes, 12 in total.
        assert_eq!(net.process_count(), 12, "{variant:?}");
        let kind_count = |kind: EventKind| {
            net.process_ids()
                .filter(|&p| net.process(p).event().kind() == kind)
                .count()
        };
        assert_eq!(kind_count(EventKind::Periodic), 5, "{variant:?}");
        assert_eq!(kind_count(EventKind::Sporadic), 7, "{variant:?}");

        // All FMS communication goes over 15 blackboards (sensor fan-in,
        // BCP chain + feedback, and one configuration channel per
        // sporadic); there are no FIFOs in this application.
        assert_eq!(net.channels().len(), 15, "{variant:?}");
        assert!(
            net.channels()
                .iter()
                .all(|c| c.kind() == ChannelKind::Blackboard),
            "{variant:?}: FMS uses blackboards only"
        );

        // §III-A schedulable subclass: every sporadic process has a
        // periodic server bound to its unique user, with the server period
        // no longer than the sporadic's own window.
        let d = derive_task_graph(&net, &fms_wcet(&ids)).unwrap();
        for sp in fms_sporadics(&ids) {
            let server = d
                .server(sp)
                .unwrap_or_else(|| panic!("{variant:?}: sporadic {sp:?} has no server"));
            assert_eq!(server.process, sp);
            assert!(
                server.period <= net.process(sp).event().period(),
                "{variant:?}: server period exceeds the sporadic window"
            );
            assert_eq!(server.burst, net.process(sp).event().burst(), "{variant:?}");
        }

        // The hyperperiod-reduction knob only retimes MagnDeclin; the two
        // variants are structurally identical.
        let expected_t = match variant {
            FmsVariant::Original => TimeQ::from_ms(1600),
            FmsVariant::Reduced => TimeQ::from_ms(400),
        };
        assert_eq!(net.process(ids.magn_declin).event().period(), expected_t);
    }
}

#[test]
fn fms_reduced_variant_reproduces_section_v_b() {
    let (net, _, ids) = fms_network(FmsVariant::Reduced);
    let d = derive_task_graph(&net, &fms_wcet(&ids)).unwrap();

    // "we reduced it to 10 s"
    assert_eq!(d.hyperperiod, TimeQ::from_secs(10));
    // "The derived task graph contained 812 jobs and 1977 edges."
    assert_eq!(d.graph.job_count(), 812);
    // Our reconstruction yields 2010 conflict edges before transitive
    // reduction (within 1.7% of the paper's 1977; the exact channel wiring
    // is unpublished) and 1126 after reduction.
    let unreduced = d.graph.edge_count() + d.reduced_edges;
    assert_eq!(d.graph.edge_count(), 1126);
    assert_eq!(unreduced, 2010);
    assert!(
        (unreduced as i64 - 1977).abs() < 100,
        "unreduced edge count {unreduced} should be close to the paper's 1977"
    );

    // Job census: each process contributes exactly `burst · H / T′` jobs
    // (T′ = server period for sporadics), and the total is the paper's 812.
    let mut per_process = vec![0usize; net.process_count()];
    for id in d.graph.job_ids() {
        per_process[d.graph.job(id).process.index()] += 1;
    }
    let mut total = 0usize;
    for pid in net.process_ids() {
        let (t, burst) = match d.server(pid) {
            Some(s) => (s.period, s.burst),
            None => (net.process(pid).event().period(), net.process(pid).event().burst()),
        };
        let ratio = d.hyperperiod / t;
        assert!(ratio.is_integer(), "H must be a multiple of every period");
        let expected = burst as usize * ratio.numer() as usize;
        assert_eq!(
            per_process[pid.index()],
            expected,
            "{}: job count should be burst × H/T′",
            net.process(pid).name()
        );
        total += expected;
    }
    assert_eq!(total, 812);

    // "The load of this task graph was low ≈ 0.23"
    let times = AsapAlap::compute(&d.graph);
    let l = load_with(&d.graph, &times);
    assert_eq!(l.load, TimeQ::new(93, 400)); // = 0.2325
    // "consistently, a single-processor mapping encountered no deadline
    // misses": Prop. 3.1 admits M = 1.
    assert!(necessary_condition(&d.graph, 1).is_ok());
}

#[test]
fn fms_original_variant_has_40s_hyperperiod_and_thousands_of_jobs() {
    let (net, _, ids) = fms_network(FmsVariant::Original);
    let d = derive_task_graph(&net, &fms_wcet(&ids)).unwrap();
    // "a too high code generation overhead due to a long hyperperiod (40s)
    // (an online policy subroutine handling a few thousands jobs)"
    assert_eq!(d.hyperperiod, TimeQ::from_secs(40));
    assert_eq!(d.graph.job_count(), 2798);
    // The graph every cold compile derives and reduces: 7206 conflict
    // edges, of which transitive reduction keeps 3928.
    assert_eq!(d.graph.edge_count() + d.reduced_edges, 7206);
    assert_eq!(d.graph.edge_count(), 3928);
}
