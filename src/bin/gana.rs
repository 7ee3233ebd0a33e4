//! `gana` — command-line front end for netlist annotation.
//!
//! ```sh
//! # Train a model on generated circuits and save a checkpoint.
//! gana train --task ota --circuits 128 --epochs 12 --out ota.ckpt
//!
//! # Annotate a SPICE netlist with a trained model.
//! gana annotate my_design.sp --model ota.ckpt --task ota --export annotated.sp
//!
//! # Structural inspection without a model (parse, flatten, preprocess,
//! # primitives).
//! gana inspect my_design.sp
//!
//! # Emit one of the benchmark circuits as SPICE.
//! gana generate --kind sc-filter --out sc_filter.sp
//!
//! # Run the annotation daemon and submit a netlist to it.
//! gana serve --model ota.ckpt --task ota --addr 127.0.0.1:7878 --workers 8
//! gana submit my_design.sp --task ota --addr 127.0.0.1:7878
//!
//! # Persist a binary engine snapshot and warm-start the daemon from it.
//! gana train --task ota --out ota.ckpt --save-model ota.gsnap
//! gana serve --model ota.ckpt --task ota --snapshot-dir /var/lib/gana
//! gana snapshot inspect /var/lib/gana/engine.gsnap
//! ```

use gana::core::{export, report, Pipeline, Task};
use gana::datasets::{ota, ota_classes, phased_array, rf, rf_classes, sc_filter};
use gana::eval;
use gana::gnn::{checkpoint, GcnConfig, TrainerConfig};
use gana::netlist::SpiceLibrary;
use gana::persist::{EngineSnapshot, ModelEntry};
use gana::primitives::PrimitiveLibrary;
use std::collections::{HashMap, HashSet};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("annotate") => cmd_annotate(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `gana help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "gana — GCN-based netlist annotation (GANA, DATE 2020 reproduction)\n\n\
         USAGE:\n  gana train    --task ota|rf [--circuits N] [--epochs N] [--filter-order K] [--seed N] --out FILE [--save-model SNAP]\n  \
         gana annotate FILE --model FILE --task ota|rf [--baseline FILE] [--export FILE] [--svg FILE] [--dot FILE]\n  \
         gana inspect  FILE\n  \
         gana generate --kind ota|rf|sc-filter|phased-array [--seed N] [--out FILE]\n  \
         gana serve    --model FILE --task ota|rf [--addr HOST:PORT] [--workers N] [--queue N] [--stats-secs N] [--max-batch N] [--batch-window-us N|auto] [--snapshot-dir DIR] [--snapshot-secs N] [--pid-file FILE]\n  \
         gana shard    --snapshot-root DIR [--shards N] [--addr HOST:PORT] [--seed-snapshot SNAP | --model FILE --task ota|rf] [--workers N] [--queue N] [--stats-secs N] [--snapshot-secs N] [--max-batch N] [--batch-window-us N|auto]\n  \
         gana submit   FILE --task ota|rf [--addr HOST:PORT] [--deadline-ms N] [--export FILE] [--binary]\n  \
         gana loadgen  --addr HOST:PORT [--rate RPS] [--duration-s N] [--connections N] [--deadline-ms N|none] [--seed N] [--skew S] [--session-frac F] [--batch-frac F] [--batch-size N] [--families a,b,..] [--cached] [--text]\n  \
         gana submit   stats|shutdown [--addr HOST:PORT] [--binary] [--per-shard]\n  \
         gana snapshot save --model FILE --task ota|rf --out SNAP\n  \
         gana snapshot inspect SNAP"
    );
}

/// A subcommand's arguments: positionals, `--key value` flags, and bare
/// `--switch`es.
type Args<'a> = (Vec<&'a str>, HashMap<&'a str, &'a str>, HashSet<&'a str>);

/// Splits `args` into positionals, the `--key value` flags named in
/// `values`, and the bare switches named in `switches`. Any other `--flag`
/// is an error that names it, so a typo fails loudly instead of being
/// ignored or swallowing the next argument as its value.
fn parse_flags<'a>(
    args: &'a [String],
    values: &[&str],
    switches: &[&str],
) -> Result<Args<'a>, String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut present = HashSet::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(key) = arg.strip_prefix("--") else {
            positional.push(arg.as_str());
            continue;
        };
        if switches.contains(&key) {
            present.insert(key);
        } else if values.contains(&key) {
            let value = rest
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key, value.as_str());
        } else {
            let accepted: Vec<String> = values
                .iter()
                .chain(switches)
                .map(|name| format!("--{name}"))
                .collect();
            return Err(format!(
                "unknown flag --{key} (accepted: {})",
                if accepted.is_empty() {
                    "none".to_string()
                } else {
                    accepted.join(" ")
                }
            ));
        }
    }
    Ok((positional, flags, present))
}

fn parse_task(flags: &HashMap<&str, &str>) -> Result<Task, String> {
    match flags.get("task").copied() {
        Some("ota") => Ok(Task::OtaBias),
        Some("rf") => Ok(Task::Rf),
        Some(other) => Err(format!("unknown task {other:?} (expected ota or rf)")),
        None => Err("missing --task ota|rf".to_string()),
    }
}

fn numeric<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad --{key} value {v:?}")),
        None => Ok(default),
    }
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let (_, flags, _) = parse_flags(
        args,
        &[
            "task",
            "circuits",
            "epochs",
            "filter-order",
            "seed",
            "out",
            "save-model",
        ],
        &[],
    )?;
    let task = parse_task(&flags)?;
    let circuits: usize = numeric(&flags, "circuits", 128)?;
    let epochs: usize = numeric(&flags, "epochs", 12)?;
    let filter_order: usize = numeric(&flags, "filter-order", 16)?;
    let seed: u64 = numeric(&flags, "seed", 1)?;
    let out = flags.get("out").ok_or("missing --out FILE")?;

    let (corpus, classes) = match task {
        Task::OtaBias => (ota::corpus(circuits, seed), 2),
        Task::Rf => (rf::corpus(circuits, seed), 3),
    };
    let stats = corpus.stats();
    println!(
        "training on {} circuits ({} nodes, {} classes)",
        stats.circuits, stats.nodes, stats.labels
    );
    let model_config = GcnConfig {
        conv_channels: vec![16, 32],
        filter_order,
        fc_dim: 128,
        num_classes: classes,
        dropout: 0.1,
        batch_norm: false,
        ..GcnConfig::default()
    };
    let trainer_config = TrainerConfig {
        epochs,
        learning_rate: 4e-3,
        ..TrainerConfig::default()
    };
    let trainer = eval::train_on_corpus(&corpus, model_config, trainer_config, seed)
        .map_err(|e| e.to_string())?;
    let last = trainer.history().last().ok_or("no epochs ran")?;
    println!(
        "trained: loss {:.4}, train acc {:.2}%, val acc {:.2}%",
        last.train_loss,
        100.0 * last.train_accuracy,
        100.0 * last.validation_accuracy
    );
    checkpoint::save(trainer.model(), out).map_err(|e| e.to_string())?;
    println!("checkpoint written to {out}");
    if let Some(snap) = flags.get("save-model") {
        let bytes = model_snapshot(trainer.model().clone(), task)?
            .save(std::path::Path::new(snap))
            .map_err(|e| e.to_string())?;
        println!("engine snapshot written to {snap} ({bytes} B)");
    }
    Ok(())
}

fn task_class_names(task: Task) -> Vec<String> {
    match task {
        Task::OtaBias => ota_classes::NAMES.iter().map(|s| s.to_string()).collect(),
        Task::Rf => rf_classes::NAMES.iter().map(|s| s.to_string()).collect(),
    }
}

/// Wraps a trained model (plus the standard primitive library and an empty
/// region cache) into a loadable engine snapshot.
fn model_snapshot(model: gana::gnn::GcnModel, task: Task) -> Result<EngineSnapshot, String> {
    Ok(EngineSnapshot {
        models: vec![ModelEntry {
            task,
            class_names: task_class_names(task),
            model,
        }],
        library: PrimitiveLibrary::standard().map_err(|e| e.to_string())?,
        cache_entries: Vec::new(),
    })
}

fn load_pipeline(model_path: &str, task: Task) -> Result<Pipeline, String> {
    let model = checkpoint::load(model_path).map_err(|e| e.to_string())?;
    Ok(Pipeline::new(
        model,
        task_class_names(task),
        PrimitiveLibrary::standard().map_err(|e| e.to_string())?,
        task,
    ))
}

fn read_flat_circuit(path: &str) -> Result<gana::netlist::Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let lib = gana::netlist::parse_library(&text).map_err(|e| e.to_string())?;
    gana::netlist::flatten(&lib).map_err(|e| e.to_string())
}

fn cmd_annotate(args: &[String]) -> Result<(), String> {
    let (positional, flags, _) = parse_flags(
        args,
        &["model", "task", "baseline", "export", "svg", "dot"],
        &[],
    )?;
    let path = positional.first().ok_or("missing input netlist FILE")?;
    let task = parse_task(&flags)?;
    let model_path = flags.get("model").ok_or("missing --model FILE")?;
    let pipeline = load_pipeline(model_path, task)?;
    let flat = read_flat_circuit(path)?;
    let design = match flags.get("baseline") {
        Some(prev) => {
            // Incremental path: cold-annotate the previous revision, then
            // diff-update to the edited netlist.
            let incremental = gana::incremental::IncrementalPipeline::new(pipeline);
            let prev_flat = read_flat_circuit(prev)?;
            let baseline = incremental
                .annotate_full(&prev_flat)
                .map_err(|e| e.to_string())?;
            let (next, stats) = incremental
                .update(&baseline, &flat)
                .map_err(|e| e.to_string())?;
            println!("incremental vs {prev}: {stats}");
            next.design
        }
        None => pipeline.recognize(&flat).map_err(|e| e.to_string())?,
    };
    println!("{}", report::full_report(&design));
    if let Some(out) = flags.get("export") {
        std::fs::write(out, export::to_hierarchical_spice(&design))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("hierarchical SPICE written to {out}");
    }
    if let Some(dot) = flags.get("dot") {
        std::fs::write(dot, report::to_dot(&design))
            .map_err(|e| format!("cannot write {dot}: {e}"))?;
        println!("hierarchy dot graph written to {dot}");
    }
    if let Some(svg) = flags.get("svg") {
        let layout = gana::layout::place_design(&design, &gana::layout::Pdk::default())
            .map_err(|e| e.to_string())?;
        std::fs::write(svg, gana::layout::render::svg(&layout))
            .map_err(|e| format!("cannot write {svg}: {e}"))?;
        println!("layout SVG written to {svg}");
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let (positional, _, _) = parse_flags(args, &[], &[])?;
    let path = positional.first().ok_or("missing input netlist FILE")?;
    let flat = read_flat_circuit(path)?;
    let (clean, prep) =
        gana::netlist::preprocess(&flat, gana::netlist::PreprocessOptions::default())
            .map_err(|e| e.to_string())?;
    println!(
        "{}: {} devices, {} nets (after preprocessing: {} devices, {} folded)",
        clean.name(),
        flat.device_count(),
        flat.net_count(),
        clean.device_count(),
        prep.eliminated()
    );
    let graph = gana::graph::CircuitGraph::build(&clean, gana::graph::GraphOptions::default());
    println!(
        "graph: {} vertices ({} elements + {} nets), {} edges",
        graph.vertex_count(),
        graph.element_count(),
        graph.net_count(),
        graph.edge_count()
    );
    let library = PrimitiveLibrary::standard().map_err(|e| e.to_string())?;
    let annotation = gana::primitives::annotate(&library, &clean, &graph);
    println!(
        "primitives: {} instances, {:.0}% device coverage",
        annotation.instances.len(),
        100.0 * annotation.coverage()
    );
    for inst in &annotation.instances {
        println!("  {:<10} [{}]", inst.primitive, inst.devices.join(", "));
    }
    if !annotation.unclaimed.is_empty() {
        println!("  unclaimed: [{}]", annotation.unclaimed.join(", "));
    }
    Ok(())
}

/// The snapshot file a `--snapshot-dir` daemon reads at boot and writes
/// periodically and at drain time.
const SNAPSHOT_FILE: &str = "engine.gsnap";

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use gana::serve::{server, Engine};

    let (_, flags, _) = parse_flags(
        args,
        &[
            "model",
            "task",
            "addr",
            "workers",
            "queue",
            "stats-secs",
            "max-batch",
            "batch-window-us",
            "snapshot-dir",
            "snapshot-secs",
            "pid-file",
        ],
        &[],
    )?;
    let addr = flags.get("addr").copied().unwrap_or("127.0.0.1:7878");
    let workers: usize = numeric(
        &flags,
        "workers",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    )?;
    let queue: usize = numeric(&flags, "queue", 256)?;
    let stats_secs: u64 = numeric(&flags, "stats-secs", 30)?;
    let snapshot_secs: u64 = numeric(&flags, "snapshot-secs", 300)?;
    let max_batch: usize = numeric(&flags, "max-batch", 1)?;

    let mut builder = Engine::builder()
        .workers(workers)
        .queue_capacity(queue)
        .max_batch(max_batch);
    // `auto` sizes the gather window from the live arrival-gap and
    // service-time EMAs instead of a fixed number.
    builder = match flags.get("batch-window-us").copied() {
        Some("auto") => builder.batch_window_auto(),
        _ => builder.batch_window_us(numeric(&flags, "batch-window-us", 0)?),
    };

    // Warm start: an existing snapshot replaces the train-and-build cold
    // path entirely — the model, library, and region cache all come from
    // the file. A corrupt or version-skewed snapshot is rejected (never
    // silently half-loaded); the daemon then falls back to --model if
    // given.
    let snapshot_path = flags
        .get("snapshot-dir")
        .map(|dir| std::path::Path::new(dir).join(SNAPSHOT_FILE));
    let mut warm = false;
    if let Some(path) = &snapshot_path {
        if path.exists() {
            match EngineSnapshot::load(path) {
                Ok(snapshot) => {
                    println!("warm start from {}", path.display());
                    builder = builder.warm_from(snapshot);
                    warm = true;
                }
                Err(err) => eprintln!(
                    "warning: cannot warm-start from {}: {err}; starting cold",
                    path.display()
                ),
            }
        }
        builder = builder.snapshot_path(path.clone());
    }
    if !warm {
        // --task is only needed on the cold path; a warm start carries the
        // task inside the snapshot.
        let task = parse_task(&flags)?;
        let model_path = flags
            .get("model")
            .ok_or("missing --model FILE (no usable snapshot to warm-start from)")?;
        builder = builder.pipeline(load_pipeline(model_path, task)?);
    }

    // The pid file lives exactly as long as this daemon: written before we
    // listen, removed when the guard drops after the drain.
    let _pid = flags
        .get("pid-file")
        .map(gana::shard::daemon::PidFile::write)
        .transpose()
        .map_err(|e| format!("cannot write pid file: {e}"))?;

    let engine = std::sync::Arc::new(builder.build());
    let config = server::ServerConfig {
        addr: addr.to_string(),
        stats_interval: (stats_secs > 0).then(|| std::time::Duration::from_secs(stats_secs)),
        snapshot_interval: (snapshot_secs > 0 && snapshot_path.is_some())
            .then(|| std::time::Duration::from_secs(snapshot_secs)),
    };
    let handle = server::serve(engine, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "gana-serve listening on {} ({} workers, queue {}); send `shutdown` to stop",
        handle.local_addr(),
        workers,
        queue
    );
    // SIGTERM/SIGINT drain the daemon exactly like a `shutdown` request
    // (stop admission, finish in-flight jobs, write the drain snapshot).
    gana::shard::daemon::run_until_shutdown(&handle);
    println!("gana-serve drained and stopped");
    Ok(())
}

fn cmd_shard(args: &[String]) -> Result<(), String> {
    use gana::shard::{serve_router, Cluster, ClusterConfig, RouterConfig, ShardCommand};

    let (_, flags, _) = parse_flags(
        args,
        &[
            "snapshot-root",
            "shards",
            "addr",
            "seed-snapshot",
            "model",
            "task",
            "workers",
            "queue",
            "stats-secs",
            "snapshot-secs",
            "max-batch",
            "batch-window-us",
        ],
        &[],
    )?;
    let shards: usize = numeric(&flags, "shards", 2)?;
    let snapshot_root = flags
        .get("snapshot-root")
        .ok_or("missing --snapshot-root DIR")?;
    let addr = flags.get("addr").copied().unwrap_or("127.0.0.1:7979");
    std::fs::create_dir_all(snapshot_root)
        .map_err(|e| format!("cannot create {snapshot_root}: {e}"))?;

    // Seed snapshot for cold shard directories: either given directly, or
    // built from a checkpoint the same way `gana snapshot save` does.
    let seed_snapshot = match (flags.get("seed-snapshot"), flags.get("model")) {
        (Some(snap), _) => Some(std::path::PathBuf::from(snap)),
        (None, Some(model_path)) => {
            let task = parse_task(&flags)?;
            let model = checkpoint::load(model_path).map_err(|e| e.to_string())?;
            let path = std::path::Path::new(snapshot_root).join("seed.gsnap");
            model_snapshot(model, task)?
                .save(&path)
                .map_err(|e| e.to_string())?;
            println!("seed snapshot written to {}", path.display());
            Some(path)
        }
        (None, None) => None, // shard dirs must already hold snapshots
    };

    // Each shard is a full `gana serve` daemon run from this same binary;
    // the supervisor appends --addr and --snapshot-dir per shard.
    let program = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut worker_args = vec!["serve".to_string()];
    for key in [
        "workers",
        "queue",
        "stats-secs",
        "snapshot-secs",
        "max-batch",
        "batch-window-us",
    ] {
        if let Some(value) = flags.get(key) {
            worker_args.push(format!("--{key}"));
            worker_args.push(value.to_string());
        }
    }
    if !flags.contains_key("workers") {
        // Shards multiply processes; default each to one worker thread.
        worker_args.push("--workers".to_string());
        worker_args.push("1".to_string());
    }

    let mut config = ClusterConfig::new(
        shards,
        snapshot_root,
        ShardCommand {
            program,
            args: worker_args,
        },
    );
    config.seed_snapshot = seed_snapshot;
    let cluster = Cluster::launch(config).map_err(|e| format!("cannot launch fleet: {e}"))?;
    let router = serve_router(
        cluster.topology(),
        RouterConfig {
            addr: addr.to_string(),
            ..RouterConfig::default()
        },
    )
    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "gana-shard router on {} over {} shards (snapshots under {}); send `shutdown` to stop",
        router.local_addr(),
        shards,
        snapshot_root
    );

    gana::shard::sys::install_term_handler();
    while !gana::shard::sys::term_requested() && !router.is_stopped() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("draining fleet (each shard writes its snapshot)");
    cluster.shutdown();
    router.shutdown();
    println!("gana-shard drained and stopped");
    Ok(())
}

fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    let (positional, flags, _) = parse_flags(args, &["model", "task", "out"], &[])?;
    match positional.first().copied() {
        Some("save") => {
            let task = parse_task(&flags)?;
            let model_path = flags.get("model").ok_or("missing --model FILE")?;
            let out = flags.get("out").ok_or("missing --out SNAP")?;
            let model = checkpoint::load(model_path).map_err(|e| e.to_string())?;
            let bytes = model_snapshot(model, task)?
                .save(std::path::Path::new(out))
                .map_err(|e| e.to_string())?;
            println!("engine snapshot written to {out} ({bytes} B)");
            Ok(())
        }
        Some("inspect") => {
            let path = positional
                .get(1)
                .ok_or("missing snapshot FILE (usage: gana snapshot inspect SNAP)")?;
            let info =
                gana::persist::inspect(std::path::Path::new(path)).map_err(|e| e.to_string())?;
            println!("{info}");
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown snapshot subcommand {other:?} (want save|inspect)"
        )),
        None => Err("missing snapshot subcommand (want save|inspect)".to_string()),
    }
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    use gana::serve::client::{Client, RetryPolicy};

    let (positional, flags, switches) = parse_flags(
        args,
        &["task", "addr", "deadline-ms", "export"],
        &["binary", "per-shard"],
    )?;
    let (binary, per_shard) = (switches.contains("binary"), switches.contains("per-shard"));
    let addr = flags.get("addr").copied().unwrap_or("127.0.0.1:7878");
    // Retry refused connections: the daemon (or a shard fleet) may still
    // be booting or mid-restart.
    let policy = RetryPolicy::default();
    let mut client = if binary {
        Client::connect_binary_retrying(addr, policy).map_err(|e| e.to_string())?
    } else {
        Client::connect_retrying(addr, policy).map_err(|e| e.to_string())?
    };

    if positional.contains(&"stats") {
        if per_shard {
            let (shards, fleet) = client.fleet_stats().map_err(|e| e.to_string())?;
            for (id, stats) in shards {
                println!("shard {id}: {stats}");
            }
            println!("fleet: {fleet}");
        } else {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!("{stats}");
        }
        return Ok(());
    }
    if positional.contains(&"shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("daemon acknowledged shutdown");
        return Ok(());
    }

    let path = positional.first().ok_or("missing input netlist FILE")?;
    let task = parse_task(&flags)?;
    let deadline = flags
        .get("deadline-ms")
        .map(|ms| {
            ms.parse::<u64>()
                .map_err(|_| format!("bad --deadline-ms value {ms:?}"))
        })
        .transpose()?
        .map(std::time::Duration::from_millis);
    let netlist = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let annotation = client
        .annotate(&netlist, task, deadline)
        .map_err(|e| e.to_string())?;
    println!("circuit: {}", annotation.circuit_name);
    println!("sub-blocks: [{}]", annotation.sub_blocks.join(", "));
    println!("constraints: {}", annotation.constraint_count);
    for (device, label) in &annotation.device_labels {
        println!("  {device:<10} {label}");
    }
    if let Some(out) = flags.get("export") {
        std::fs::write(out, &annotation.hierarchical_spice)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("hierarchical SPICE written to {out}");
    }
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use gana::loadgen::{run, Family, LoadConfig};

    let (_, flags, switches) = parse_flags(
        args,
        &[
            "addr",
            "rate",
            "duration-s",
            "connections",
            "deadline-ms",
            "seed",
            "skew",
            "session-frac",
            "batch-frac",
            "batch-size",
            "families",
        ],
        &["cached", "text"],
    )?;
    let text = switches.contains("text");
    // --cached lets the result cache absorb repeats; default traffic is
    // nonce-busted so the server does real recognition per op.
    let cached = switches.contains("cached");
    let addr = flags.get("addr").copied().unwrap_or("127.0.0.1:7878");

    let mut config = LoadConfig::new(addr);
    config.binary = !text;
    config.cache_bust = !cached;
    config.rate_rps = numeric(&flags, "rate", config.rate_rps)?;
    config.duration = std::time::Duration::from_secs(numeric(&flags, "duration-s", 2u64)?);
    config.connections = numeric(&flags, "connections", config.connections)?;
    config.seed = numeric(&flags, "seed", config.seed)?;
    config.skew = numeric(&flags, "skew", config.skew)?;
    config.session_frac = numeric(&flags, "session-frac", config.session_frac)?;
    config.batch_frac = numeric(&flags, "batch-frac", config.batch_frac)?;
    config.batch_size = numeric(&flags, "batch-size", config.batch_size)?;
    config.deadline = match flags.get("deadline-ms").copied() {
        Some("none") => None,
        Some(ms) => Some(std::time::Duration::from_millis(
            ms.parse()
                .map_err(|_| format!("bad --deadline-ms value {ms:?}"))?,
        )),
        None => config.deadline,
    };
    if let Some(list) = flags.get("families") {
        config.families = list
            .split(',')
            .map(|name| {
                Family::parse(name.trim()).ok_or_else(|| {
                    format!("unknown family {name:?} (ota|rf|sc-filter|phased-array)")
                })
            })
            .collect::<Result<_, _>>()?;
        if config.families.is_empty() {
            return Err("--families needs at least one family".to_string());
        }
    }

    println!(
        "loadgen: {:.1} rps open-loop for {:?} over {} connections ({} mix: {:.0}% sessions, {:.0}% batches of {})",
        config.rate_rps,
        config.duration,
        config.connections,
        config
            .families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join("+"),
        config.session_frac * 100.0,
        config.batch_frac * 100.0,
        config.batch_size,
    );
    let summary = run(&config).map_err(|e| e.to_string())?;
    println!(
        "sent {} ops in {:.2}s: {} completed, {} overloaded, {} busy, {} deadline-expired, {} other, {} io",
        summary.sent,
        summary.elapsed.as_secs_f64(),
        summary.completed,
        summary.overloaded,
        summary.busy,
        summary.deadline_expired,
        summary.other_errors,
        summary.io_errors,
    );
    println!(
        "latency (all outcomes): p50 {}us p99 {}us p999 {}us mean {}us",
        summary.all.quantile_us(0.5),
        summary.all.quantile_us(0.99),
        summary.all.quantile_us(0.999),
        summary.all.mean_us(),
    );
    println!(
        "latency (accepted):     p50 {}us p99 {}us p999 {}us ({} samples)",
        summary.accepted.quantile_us(0.5),
        summary.accepted.quantile_us(0.99),
        summary.accepted.quantile_us(0.999),
        summary.accepted.samples(),
    );
    // Machine-readable line last; ci.sh greps for the `loadgen-result` tag.
    println!("loadgen-result {}", summary.machine_line());
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (_, flags, _) = parse_flags(args, &["kind", "seed", "out"], &[])?;
    let seed: u64 = numeric(&flags, "seed", 0)?;
    let kind = flags.get("kind").copied().ok_or("missing --kind")?;
    let circuit = match kind {
        "ota" => {
            ota::generate(ota::OtaSpec {
                topology: ota::OtaTopology::ALL[(seed as usize) % 6],
                pmos_input: seed % 2 == 1,
                bias: ota::BiasStyle::ALL[(seed as usize / 2) % 4],
                seed,
            })
            .circuit
        }
        "rf" => {
            rf::generate(rf::ReceiverSpec {
                lna: rf::LnaKind::ALL[(seed as usize) % 3],
                mixer: rf::MixerKind::ALL[(seed as usize / 3) % 3],
                osc: rf::OscKind::ALL[(seed as usize / 9) % 3],
                seed,
            })
            .circuit
        }
        "sc-filter" => sc_filter::generate(seed).circuit,
        "phased-array" => phased_array::generate(seed).circuit,
        other => return Err(format!("unknown --kind {other:?}")),
    };
    let text = gana::netlist::write_spice(&SpiceLibrary::new(circuit));
    match flags.get("out") {
        Some(out) => {
            std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("netlist written to {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}
