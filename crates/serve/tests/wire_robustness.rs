//! Robustness of the wire decoders against untrusted bytes.
//!
//! Every decoder that reads what a peer sent — the binary frame reader,
//! the frame body decoders, the text line parsers, and the stats line and
//! histogram decoders — must answer arbitrary or corrupted input with a
//! structured error, never a panic. Whatever a decoder does accept must
//! survive a re-encode: the bytes its value encodes to decode to an equal
//! value.

use gana_core::Task;
use gana_serve::frame::{self, HEADER_BYTES};
use gana_serve::protocol::{Request, Response};
use gana_serve::{Annotation, HistogramSnapshot, Metrics, StatsSnapshot};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn annotation() -> Annotation {
    Annotation {
        circuit_name: "ota5".to_string(),
        device_labels: vec![
            ("M0".to_string(), "gm".to_string()),
            ("R1".to_string(), "bias=low".to_string()),
        ],
        sub_blocks: vec!["DiffPair".to_string(), "CM".to_string()],
        constraint_count: 3,
        hierarchical_spice: ".SUBCKT ota5 in out\nM0 a b c d NMOS\n.ENDS\n".to_string(),
    }
}

/// One value of every request kind.
fn requests() -> Vec<Request> {
    vec![
        Request::Annotate {
            task: Task::OtaBias,
            deadline_ms: Some(250),
            netlist: "M1 a b c d NMOS\\x\n.end\r\n".to_string(),
        },
        Request::Annotate {
            task: Task::Rf,
            deadline_ms: None,
            netlist: String::new(),
        },
        Request::Batch(4),
        Request::Open {
            task: Task::Rf,
            netlist: "L1 a b 1n\n".to_string(),
        },
        Request::Update {
            session: 42,
            netlist: "M1 a b c d NMOS W=9u\n".to_string(),
        },
        Request::Close(7),
        Request::Stats,
        Request::FleetStats,
        Request::Ping,
        Request::Shutdown,
    ]
}

/// One value of every response kind.
fn responses() -> Vec<Response> {
    vec![
        Response::Ok(annotation()),
        Response::Session {
            session: 9,
            annotation: annotation(),
        },
        Response::Closed(9),
        Response::Err {
            code: "parse".to_string(),
            message: "line 3: bad card\nnear M9".to_string(),
        },
        Response::Stats("submitted=4 completed=4".to_string()),
        Response::Fleet {
            shards: vec![
                (0, "submitted=4".to_string()),
                (1, "submitted=2".to_string()),
            ],
            fleet: "submitted=6".to_string(),
        },
        Response::Pong,
        Response::Bye,
    ]
}

/// Every valid encoding the mutation tests start from: binary frames and
/// text lines of every request and response.
fn valid_encodings() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for request in requests() {
        out.push(frame::encode_request(&request));
        out.push(request.to_line().into_bytes());
    }
    for response in responses() {
        out.push(frame::encode_response(&response));
        out.push(response.to_line().into_bytes());
    }
    out
}

/// Reads back the body of one complete, freshly encoded frame.
fn body_of(encoded: &[u8]) -> Vec<u8> {
    frame::read_frame(&mut &encoded[..])
        .expect("an encoded frame reads back")
        .expect("an encoded frame is not a clean EOF")
}

fn check_read_frame(bytes: &[u8]) {
    if let Ok(Some(body)) = frame::read_frame(&mut &bytes[..]) {
        assert_eq!(body_of(&frame::frame_bytes(&body)), body);
    }
}

fn check_request_body(body: &[u8]) {
    if let Ok(request) = frame::decode_request(body) {
        let again = body_of(&frame::encode_request(&request));
        assert_eq!(
            frame::decode_request(&again).expect("re-encoded request decodes"),
            request
        );
    }
}

fn check_response_body(body: &[u8]) {
    if let Ok(response) = frame::decode_response(body) {
        let again = body_of(&frame::encode_response(&response));
        assert_eq!(
            frame::decode_response(&again).expect("re-encoded response decodes"),
            response
        );
    }
}

fn check_lines(bytes: &[u8]) {
    let line = String::from_utf8_lossy(bytes);
    if let Ok(request) = Request::parse(&line) {
        assert_eq!(
            Request::parse(&request.to_line()).expect("re-encoded request parses"),
            request
        );
    }
    if let Ok(response) = Response::parse(&line) {
        assert_eq!(
            Response::parse(&response.to_line()).expect("re-encoded response parses"),
            response
        );
    }
}

/// Feeds `bytes` to every decoder: as a frame stream, as a frame body, as
/// the body of an intact frame (so the CRC passes and the body decoders
/// run), and as a text line.
fn check_all(bytes: &[u8]) {
    check_read_frame(bytes);
    check_read_frame(&frame::frame_bytes(bytes));
    check_request_body(bytes);
    check_response_body(bytes);
    check_lines(bytes);
}

/// Bytes the text codecs split or unescape on, so random lines reach
/// their branches instead of failing at the verb.
const TEXT_BYTES: &[u8] = b" =\\\x1e\x1f\r\nnr-+0123456789aM\xff";
const VERBS: &[&str] = &[
    "annotate ota ",
    "annotate rf - ",
    "batch ",
    "open ota ",
    "update ",
    "close ",
    "ok ",
    "sess ",
    "closed ",
    "err ",
    "stats ",
    "fleet ",
];

/// A valid stats line with every counter nonzero and every histogram
/// non-empty.
fn stats_line() -> String {
    let metrics = Metrics::default();
    for (i, counter) in [
        &metrics.submitted,
        &metrics.completed,
        &metrics.failed,
        &metrics.rejected,
        &metrics.shed,
        &metrics.cache_hits,
        &metrics.expired,
        &metrics.batched_requests,
        &metrics.batch_flush_deadline,
        &metrics.session_yields,
    ]
    .into_iter()
    .enumerate()
    {
        counter.store(i as u64 + 1, Ordering::Relaxed);
    }
    for (us, histogram) in [
        (70, &metrics.queue_wait),
        (30, &metrics.parse),
        (1_900, &metrics.recognize),
        (2_100, &metrics.total),
    ] {
        histogram.record(Duration::from_micros(us));
        histogram.record(Duration::from_micros(us * 40));
    }
    metrics.batch_sizes.record(4);
    StatsSnapshot {
        sessions: 2,
        region_hits: 9,
        region_misses: 3,
        kernel: "scalar".to_string(),
        workers: 2,
        warm_start: true,
        snapshot_bytes: 4096,
        ..metrics.snapshot()
    }
    .to_wire()
}

/// Feeds `text` to the stats line decoder and, token by token, to the
/// histogram decoder. Accepted values must re-encode to text that decodes
/// to an equal value, and fleet aggregation and the human-readable line
/// must not panic on them.
fn check_stats(text: &str) {
    if let Some(snap) = StatsSnapshot::from_wire(text) {
        assert_eq!(
            StatsSnapshot::from_wire(&snap.to_wire()).as_ref(),
            Some(&snap),
            "re-encoded stats line decodes to the same value"
        );
        let valid = StatsSnapshot::from_wire(&stats_line()).expect("valid line");
        let _ = StatsSnapshot::aggregate([&snap, &snap]).to_string();
        let _ = StatsSnapshot::aggregate([&valid, &snap]).to_string();
    }
    for token in std::iter::once(text).chain(text.split([' ', '='])) {
        if let Some(histogram) = HistogramSnapshot::decode(token) {
            assert_eq!(
                HistogramSnapshot::decode(&histogram.encode()).as_ref(),
                Some(&histogram),
                "re-encoded histogram decodes to the same value"
            );
            let mut merged = histogram.clone();
            merged.merge(&histogram);
            let _ = (merged.quantile_us(0.999), merged.mean_us());
        }
    }
}

/// Bytes the stats codecs split or parse on, so random text reaches their
/// branches instead of failing at the first byte.
const STATS_BYTES: &[u8] = b" =;:-_0123456789aeklrst\xff";
/// Values that sit at or next to the `u64` edges.
const EDGE_VALUES: &[&str] = &[
    "0",
    "1",
    "18446744073709551614",
    "18446744073709551615",
    "18446744073709551616",
];

/// A `key=value` token for one field of the valid stats line: `value` is
/// an edge value or, for histograms, `total;bucket:count` built from them.
fn edge_token(key: usize, value: usize, bucket: u32) -> String {
    let line = stats_line();
    let keys: Vec<&str> = line
        .split(' ')
        .filter_map(|pair| pair.split_once('=').map(|(key, _)| key))
        .collect();
    let key = keys[key % keys.len()];
    let value = EDGE_VALUES[value % EDGE_VALUES.len()];
    if key.ends_with("_hist") {
        format!("{key}={value};{bucket}:{value};{}:{value}", bucket / 2)
    } else {
        format!("{key}={value}")
    }
}

#[test]
fn stats_histogram_counts_that_overflow_are_rejected() {
    assert_eq!(
        HistogramSnapshot::decode("0;1:18446744073709551615;2:1"),
        None
    );
    // A total that just fits is still a histogram.
    let full = HistogramSnapshot::decode("0;1:18446744073709551614;2:1").expect("fits");
    assert_eq!(full.samples(), u64::MAX);
}

#[test]
fn stats_fleet_sums_saturate() {
    let big = StatsSnapshot::from_wire("submitted=18446744073709551615").expect("decodes");
    let one = StatsSnapshot::from_wire("submitted=1").expect("decodes");
    assert_eq!(StatsSnapshot::aggregate([&big, &one]).submitted, u64::MAX);
}

#[test]
fn stats_histogram_merges_saturate() {
    let a = StatsSnapshot::from_wire("total_hist=18446744073709551615;300:1").expect("decodes");
    let b = StatsSnapshot::from_wire("total_hist=1;300:1").expect("decodes");
    let mut merged = a.total_hist.clone();
    merged.merge(&b.total_hist);
    assert_eq!(merged.samples(), 2);
    assert_eq!(merged.mean_us(), u64::MAX / 2);
    let fleet = StatsSnapshot::aggregate([&a, &b]);
    assert_eq!(fleet.total_hist, merged);
}

#[test]
fn stats_display_hit_total_saturates() {
    let snap = StatsSnapshot::from_wire("region_hits=18446744073709551615 region_misses=1")
        .expect("decodes");
    let text = snap.to_string();
    assert!(
        text.contains("region cache 18446744073709551615/18446744073709551615 hit"),
        "{text}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic_the_stats_decoders(
        key in any::<usize>(),
        tail in prop::collection::vec(0usize..STATS_BYTES.len(), 0..80),
    ) {
        let tail: Vec<u8> = tail.iter().map(|&i| STATS_BYTES[i]).collect();
        let tail = String::from_utf8_lossy(&tail).into_owned();
        check_stats(&tail);
        // Behind a known key, so the value decoders see the random text.
        let keyed = edge_token(key, 0, 0);
        let (key, _) = keyed.split_once('=').expect("key=value");
        check_stats(&format!("{key}={tail}"));
    }

    #[test]
    fn single_byte_mutations_of_a_stats_line(
        position in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut line = stats_line().into_bytes();
        let position = position % line.len();
        line[position] = byte;
        check_stats(&String::from_utf8_lossy(&line));
    }

    #[test]
    fn edge_values_aggregate_and_display(
        fields in prop::collection::vec((any::<usize>(), any::<usize>(), 0u32..1984), 1..6),
    ) {
        let line: Vec<String> = fields
            .iter()
            .map(|&(key, value, bucket)| edge_token(key, value, bucket))
            .collect();
        let (a, b) = line.split_at(line.len() / 2);
        check_stats(&a.join(" "));
        check_stats(&b.join(" "));
        if let (Some(a), Some(b)) = (
            StatsSnapshot::from_wire(&a.join(" ")),
            StatsSnapshot::from_wire(&b.join(" ")),
        ) {
            let _ = StatsSnapshot::aggregate([&a, &b]).to_string();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check_all(&bytes);
    }

    #[test]
    fn arbitrary_bodies_behind_a_known_opcode(
        opcode in 0u8..12,
        tail in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut body = vec![opcode];
        body.extend_from_slice(&tail);
        check_all(&body);
    }

    #[test]
    fn arbitrary_lines_behind_a_known_verb(
        verb in 0usize..VERBS.len(),
        tail in prop::collection::vec(0usize..TEXT_BYTES.len(), 0..64),
    ) {
        let mut line = VERBS[verb].as_bytes().to_vec();
        line.extend(tail.iter().map(|&i| TEXT_BYTES[i]));
        check_all(&line);
    }

    #[test]
    fn single_byte_mutations_of_valid_encodings(
        which in any::<usize>(),
        position in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let encodings = valid_encodings();
        let mut mutated = encodings[which % encodings.len()].clone();
        let position = position % mutated.len();
        mutated[position] = byte;
        check_all(&mutated);
        // A mutated frame almost always fails its CRC; mutate the body of
        // an intact frame too so the body decoders see the damage.
        if mutated[0] == frame::FRAME_MAGIC && mutated.len() > HEADER_BYTES + 4 {
            check_all(&mutated[HEADER_BYTES..mutated.len() - 4]);
        }
    }
}
