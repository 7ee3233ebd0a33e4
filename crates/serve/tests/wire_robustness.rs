//! Robustness of the wire decoders against untrusted bytes.
//!
//! Every decoder that reads what a peer sent — the binary frame reader,
//! the frame body decoders, and the text line parsers — must answer
//! arbitrary or corrupted input with a structured error, never a panic.
//! Whatever a decoder does accept must survive a re-encode: the bytes its
//! value encodes to decode to an equal value.

use gana_core::Task;
use gana_serve::frame::{self, HEADER_BYTES};
use gana_serve::protocol::{Request, Response};
use gana_serve::Annotation;
use proptest::prelude::*;

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
