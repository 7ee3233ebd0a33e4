//! The traced run must measure the same program as the untraced one: for
//! every Table II family, the stage-by-stage composition the trace wraps
//! in spans yields exactly what `Pipeline::recognize` yields.

use gana::core::{report, Task};
use gana_benchmark::annotate::recognize_traced;
use gana_benchmark::inputs::{paper_designs, Family};
use gana_benchmark::setup::{self, ModelSize};
use gana_benchmark::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn traced_composition_equals_recognize_for_every_family() {
    let library = Arc::new(setup::library());
    let ota = setup::pipeline(
        setup::train(Task::OtaBias, ModelSize::Paper),
        &library,
        Task::OtaBias,
    );
    let rf = setup::pipeline(setup::train(Task::Rf, ModelSize::Paper), &library, Task::Rf);
    let designs = paper_designs(7);
    for family in [
        Family::Ota,
        Family::Rf,
        Family::ScFilter,
        Family::PhasedArray,
    ] {
        let design = designs
            .iter()
            .find(|d| d.family == family)
            .expect("every round holds every family");
        let pipeline = if family.task() == Task::OtaBias {
            &ota
        } else {
            &rf
        };
        let lib = gana::netlist::parse_library(&design.spice).expect("generated SPICE parses");
        let circuit = gana::netlist::flatten(&lib).expect("flattens");

        let cold = pipeline.recognize(&circuit).expect("recognizes");
        let mut tracer = Tracer::new(Instant::now());
        let (traced, flop) =
            recognize_traced(pipeline, &circuit, &mut tracer, 0, None).expect("recognizes");

        assert_eq!(traced.gcn_class, cold.gcn_class, "{family:?}");
        assert_eq!(traced.smoothed_class, cold.smoothed_class, "{family:?}");
        assert_eq!(traced.final_label, cold.final_label, "{family:?}");
        assert_eq!(traced.constraints, cold.constraints, "{family:?}");
        assert_eq!(traced.hierarchy, cold.hierarchy, "{family:?}");
        assert_eq!(
            report::full_report(&traced),
            report::full_report(&cold),
            "{family:?}"
        );
        assert_eq!(
            traced.graph.store().heap_bytes(),
            cold.graph.store().heap_bytes(),
            "{family:?}: the store records the same sections"
        );
        assert!(flop > 0.0);

        // One span per stage, and every VF2 call nested in `core.post`.
        let spans = tracer.spans();
        for stage in [
            "netlist.preprocess",
            "graph.build",
            "gnn.prepare",
            "gnn.forward",
            "core.post",
        ] {
            assert_eq!(
                spans.iter().filter(|s| s.name == stage).count(),
                1,
                "{family:?}: {stage}"
            );
        }
        let post = spans.iter().position(|s| s.name == "core.post").unwrap();
        let vf2: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "primitives.vf2")
            .collect();
        assert_eq!(
            vf2.len(),
            cold.sub_blocks.len(),
            "{family:?}: one call per block"
        );
        assert!(vf2.iter().all(|s| s.parent == Some(post)));
    }
}
