//! The serving front-end's hostile-input gauntlet and panic-hardening
//! regression suite.
//!
//! Three layers of the same contract — "a bad request costs one typed
//! error (or a clean close), never a worker, a queue slot, or the next
//! batch":
//!
//! 1. **Wire level**: truncated frames, oversized length prefixes,
//!    garbage opcodes, NaN coordinates, and mid-frame disconnects each
//!    get the reply-then-close behavior `server::conn` documents, and the
//!    batch queue always drains back to zero.
//! 2. **Admission level**: a burst past the queue bound sheds with a
//!    typed `Shed` error while everything admitted is still answered.
//! 3. **Engine level**: a panicking query (NaN coordinates tripping a
//!    total-order assumption) in batch N yields `QueryResult::Failed` for
//!    exactly that request, and batch N+1 answers **bit-identical** to a
//!    fresh engine — the mutex-poison cascade regression.
//!
//! Plus answer identity across the process boundary: a server fronting a
//! spatially sharded engine answers every query bit-identical to the
//! core-library oracle, before and after an `APPLY`.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uncertain_engine::server::protocol::{self, op, Client, ErrorCode, Reply, Request, WireError};
use uncertain_engine::server::{Server, ServerConfig, ServerHandle};
use uncertain_engine::shard::PartitionerKind;
use uncertain_engine::{Engine, EngineConfig, QueryRequest, QueryResult, Update};
use uncertain_geom::Point;
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_nn::quantification::exact::quantification_discrete;
use uncertain_nn::queries::Guarantee;
use uncertain_nn::workload;

fn start_server(queue_bound: usize, window: Duration, max_batch: usize) -> ServerHandle {
    let set = workload::random_discrete_set(200, 3, 5.0, 17);
    let engine = Arc::new(Engine::new(set, EngineConfig::default()));
    Server::start(
        engine,
        ServerConfig {
            queue_bound,
            batch_window: window,
            max_batch,
            accept_threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn read_error_reply(s: &mut TcpStream) -> (ErrorCode, String) {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let f = protocol::read_frame(s, protocol::REPLY_FRAME_MAX).expect("an error reply frame");
    match protocol::decode_reply(f.opcode, &f.body).expect("decodable reply") {
        Reply::Error { code, detail } => (code, detail),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

fn assert_closed(s: &mut TcpStream) {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut rest = Vec::new();
    let n = s.read_to_end(&mut rest).expect("clean close, not a hang");
    assert_eq!(n, 0, "server must close after a framing-level error");
}

/// Polls the handle until the batch queue is empty (all admitted requests
/// served) — the "no leaked queue slot" assertion.
fn assert_queue_drains(h: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "queue never drained to 0");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn hostile_frames_get_typed_errors_or_clean_close() {
    let h = start_server(64, Duration::from_micros(200), 64);
    let addr = h.local_addr().to_string();

    // (a) Oversized length prefix: typed TooLarge reply, then close.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&(protocol::REQUEST_FRAME_MAX + 1).to_le_bytes())
            .unwrap();
        let (code, _) = read_error_reply(&mut s);
        assert_eq!(code, ErrorCode::TooLarge);
        assert_closed(&mut s);
    }

    // (b) Truncated frame (length promises 100 bytes, 3 arrive, then the
    // write side closes): clean close, no reply, no stuck reader.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        assert_closed(&mut s);
    }

    // (c) Garbage opcode: typed BadOpcode reply, then close.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&protocol::frame(3, 0x7F, &[])).unwrap();
        let (code, _) = read_error_reply(&mut s);
        assert_eq!(code, ErrorCode::BadOpcode);
        assert_closed(&mut s);
    }

    // (d) Malformed body (framing intact): typed Malformed reply and the
    // connection SURVIVES — a valid query on the same socket still works.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&protocol::frame(4, op::REQ_NONZERO, &[0u8; 3]))
            .unwrap();
        let (code, _) = read_error_reply(&mut s);
        assert_eq!(code, ErrorCode::Malformed);
        let valid = Request::Query(QueryRequest::Nonzero {
            q: Point::new(0.5, -0.5),
        });
        s.write_all(&protocol::encode_request(5, &valid)).unwrap();
        let f = protocol::read_frame(&mut s, protocol::REPLY_FRAME_MAX).unwrap();
        assert_eq!(f.req_id, 5);
        assert!(matches!(
            protocol::decode_reply(f.opcode, &f.body).unwrap(),
            Reply::Nonzero(_)
        ));
    }

    // (e) NaN coordinates are rejected at decode — they never reach the
    // engine's total-order-assuming kernels.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let mut body = Vec::new();
        body.extend_from_slice(&f64::NAN.to_le_bytes());
        body.extend_from_slice(&1.0f64.to_le_bytes());
        s.write_all(&protocol::frame(6, op::REQ_NONZERO, &body))
            .unwrap();
        let (code, _) = read_error_reply(&mut s);
        assert_eq!(code, ErrorCode::Malformed);
    }

    // (f) Mid-frame disconnect: drop the socket after a partial frame.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&50u32.to_le_bytes()).unwrap();
        s.write_all(&[9, 9]).unwrap();
        drop(s);
    }

    // After the storm, the serving path is intact: a fresh client gets
    // real answers and the queue drains to zero (no leaked slots).
    let mut c = Client::connect(&addr).unwrap();
    for i in 0..20 {
        let rep = c
            .call(&Request::Query(QueryRequest::TopK {
                q: Point::new(i as f64 - 10.0, 3.0),
                k: 3,
            }))
            .expect("post-storm queries still answered");
        assert!(matches!(rep, Reply::Ranked { .. }), "got {rep:?}");
    }
    assert_queue_drains(&h);
    h.shutdown();
}

/// A threshold `τ ≤ 0` would admit every live site, `π = 0` included, so
/// decoding rejects it as `Malformed` (a typed reply on a surviving
/// connection, like the malformed body of (d) above) before it can reach
/// an engine.
#[test]
fn non_positive_threshold_decodes_as_malformed() {
    let body = |tau: f64| -> Vec<u8> {
        [0.5f64, -0.5, tau]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    };
    for tau in [0.0, -0.0, -0.5] {
        assert!(
            matches!(
                protocol::decode_request(op::REQ_THRESHOLD, &body(tau)),
                Err(WireError::Malformed(_))
            ),
            "tau = {tau}"
        );
    }
    assert!(matches!(
        protocol::decode_request(op::REQ_THRESHOLD, &body(0.05)),
        Ok(Request::Query(QueryRequest::Threshold { tau, .. })) if tau == 0.05
    ));
}

#[test]
fn overload_sheds_with_typed_error_and_queue_drains() {
    // Bound 2, slow 50 ms window, tiny batches: a 40-query burst must
    // overflow admission while everything admitted is still served.
    let h = start_server(2, Duration::from_millis(50), 4);
    let addr = h.local_addr().to_string();
    let shed_before = uncertain_obs::registry().counter("server.shed").get();

    let client = Client::connect(&addr).unwrap();
    let (mut tx, mut rx) = client.split().unwrap();
    let burst = 40;
    for i in 0..burst {
        tx.send(&Request::Query(QueryRequest::Nonzero {
            q: Point::new(i as f64, 0.0),
        }))
        .unwrap();
    }
    tx.finish();

    let (mut answered, mut shed) = (0u32, 0u32);
    loop {
        match rx.recv() {
            Ok((_, Reply::Nonzero(_))) => answered += 1,
            Ok((
                _,
                Reply::Error {
                    code: ErrorCode::Shed,
                    ..
                },
            )) => shed += 1,
            Ok((_, other)) => panic!("unexpected reply {other:?}"),
            Err(WireError::Eof) => break,
            Err(e) => panic!("transport error: {e}"),
        }
    }
    assert_eq!(
        answered + shed,
        burst,
        "every request gets exactly one reply"
    );
    assert!(shed > 0, "a 40-burst against bound 2 must shed");
    assert!(answered > 0, "admitted requests must still be served");
    let shed_after = uncertain_obs::registry().counter("server.shed").get();
    assert!(
        shed_after - shed_before >= u64::from(shed),
        "server.shed counter must record the sheds"
    );
    assert_queue_drains(&h);
    h.shutdown();
}

#[test]
fn apply_storm_never_blocks_in_flight_reads() {
    let h = start_server(1024, Duration::from_micros(200), 256);
    let addr = h.local_addr().to_string();

    // One connection hammers epoch-publishing applies...
    let writer_addr = addr.clone();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(&writer_addr).unwrap();
        let mut last_epoch = 0;
        for round in 0..20u64 {
            let updates = vec![
                Update::Insert(DiscreteUncertainPoint::certain(Point::new(
                    round as f64,
                    -(round as f64),
                ))),
                Update::Remove(round as usize),
            ];
            match c.call(&Request::Apply(updates)) {
                Ok(Reply::Apply { epoch, .. }) => last_epoch = epoch,
                other => panic!("apply reply: {other:?}"),
            }
        }
        last_epoch
    });

    // ...while this one keeps reading. Every query must be answered —
    // epoch handoff means apply storms never block in-flight reads.
    let mut c = Client::connect(&addr).unwrap();
    for i in 0..60 {
        let rep = c
            .call(&Request::Query(QueryRequest::Nonzero {
                q: Point::new((i % 11) as f64 - 5.0, (i % 7) as f64 - 3.0),
            }))
            .expect("reads survive the apply storm");
        assert!(matches!(rep, Reply::Nonzero(_)), "got {rep:?}");
    }
    let last_epoch = writer.join().unwrap();
    assert_eq!(last_epoch, 20, "each apply publishes one epoch");
    assert_queue_drains(&h);
    h.shutdown();
}

/// The poison-cascade regression (ISSUE acceptance): a panicking query in
/// batch N must (1) fail only itself, and (2) leave the engine serving
/// batch N+1 **bit-identical** to a fresh engine — locks recovered,
/// nothing cached from the poisoned evaluation, workers alive.
#[test]
fn panicking_query_leaves_next_batch_bit_identical() {
    for threads in [1usize, 4] {
        let set = workload::random_discrete_set(150, 3, 5.0, 9);
        let config = EngineConfig {
            threads: Some(threads),
            ..EngineConfig::default()
        };
        let engine = Engine::new(set.clone(), config);

        // Batch N: valid queries around one poisoned NaN request.
        let queries = workload::random_queries(24, 60.0, 11);
        let mut batch_n: Vec<QueryRequest> = queries
            .iter()
            .map(|&q| QueryRequest::TopK { q, k: 3 })
            .collect();
        let poison_idx = 7;
        batch_n.insert(
            poison_idx,
            QueryRequest::TopK {
                q: Point::new(f64::NAN, 0.0),
                k: 3,
            },
        );
        let resp = engine.run_batch(&batch_n);
        assert_eq!(resp.results.len(), batch_n.len());
        for (i, res) in resp.results.iter().enumerate() {
            if i == poison_idx {
                assert!(
                    matches!(res, QueryResult::Failed { .. }),
                    "[threads={threads}] NaN query must fail typed, got {res:?}"
                );
            } else {
                assert!(
                    !matches!(res, QueryResult::Failed { .. }),
                    "[threads={threads}] request {i} must not be collateral damage"
                );
            }
        }

        // Batch N+1 vs a fresh engine: bit-identical or the panic leaked
        // state (a poisoned lock, a cleared structure, a cached Failed).
        let batch_n1: Vec<QueryRequest> = queries
            .iter()
            .flat_map(|&q| {
                [
                    QueryRequest::Nonzero { q },
                    QueryRequest::Threshold { q, tau: 0.25 },
                    QueryRequest::TopK { q, k: 5 },
                ]
            })
            .collect();
        let got = engine.run_batch(&batch_n1).results;
        let fresh = Engine::new(set, config);
        let want = fresh.run_batch(&batch_n1).results;
        assert_eq!(
            got, want,
            "[threads={threads}] batch N+1 diverged from a fresh engine"
        );
    }
}

#[test]
fn shutdown_is_prompt_and_idempotent() {
    let h = start_server(64, Duration::from_micros(200), 64);
    let addr = h.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(matches!(c.call(&Request::Ping), Ok(Reply::Pong)));
    let t0 = Instant::now();
    h.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on live connections"
    );
}

/// The wire serves any shard count: a server in front of an S = 3 spatial
/// engine answers NONZERO / TOPK / THRESHOLD bit-identical to the
/// core-library oracle over the live sites, then takes an APPLY and
/// answers the next epoch's queries bit-identical to that epoch's oracle.
#[test]
fn sharded_engine_over_the_wire_matches_the_oracle_at_every_epoch() {
    let set = workload::random_discrete_set(120, 3, 5.0, 23);
    let engine = Arc::new(Engine::new(
        set.clone(),
        EngineConfig {
            shards: Some(3),
            partitioner: PartitionerKind::Spatial,
            ..EngineConfig::default()
        },
    ));
    assert_eq!(engine.num_shards(), 3);
    let h = Server::start(engine, ServerConfig::default()).expect("bind loopback");
    let mut c = Client::connect(&h.local_addr().to_string()).unwrap();
    let queries = workload::random_queries(6, 50.0, 24);

    // The oracle's live sites by stable id.
    let mut live: Vec<(u64, DiscreteUncertainPoint)> = set
        .points
        .iter()
        .cloned()
        .enumerate()
        .map(|(id, p)| (id as u64, p))
        .collect();
    let check_epoch = |c: &mut Client, live: &[(u64, DiscreteUncertainPoint)]| {
        let oracle = DiscreteSet::new(live.iter().map(|(_, p)| p.clone()).collect());
        let ids: Vec<u64> = live.iter().map(|&(id, _)| id).collect();
        for &q in &queries {
            let mut want: Vec<u64> = oracle.nonzero_nn(q).into_iter().map(|d| ids[d]).collect();
            want.sort_unstable();
            let rep = c
                .call(&Request::Query(QueryRequest::Nonzero { q }))
                .unwrap();
            assert_eq!(rep, Reply::Nonzero(want), "NONZERO at {q}");

            let pi = quantification_discrete(&oracle, q);
            let ranked = |keep: &dyn Fn(f64) -> bool, k: usize| {
                let mut items: Vec<(usize, f64)> = pi
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, p)| keep(p))
                    .collect();
                items.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                items.truncate(k);
                items
                    .into_iter()
                    .map(|(d, p)| (ids[d], p.to_bits()))
                    .collect::<Vec<_>>()
            };
            for (req, want) in [
                (QueryRequest::TopK { q, k: 3 }, ranked(&|p| p > 0.0, 3)),
                (
                    QueryRequest::Threshold { q, tau: 0.2 },
                    ranked(&|p| p >= 0.2, usize::MAX),
                ),
            ] {
                let Reply::Ranked { items, guarantee } = c.call(&Request::Query(req)).unwrap()
                else {
                    panic!("{req:?}: not a ranked reply");
                };
                assert_eq!(guarantee, Guarantee::Exact);
                let got: Vec<(u64, u64)> = items.iter().map(|&(id, p)| (id, p.to_bits())).collect();
                assert_eq!(got, want, "{req:?}");
            }
        }
    };
    check_epoch(&mut c, &live);

    // One straddling APPLY: removes across the cloud, a long-haul move
    // (cross-shard under the spatial split) and two inserts.
    let moved_to = DiscreteUncertainPoint::certain(Point::new(-30.0, 28.0));
    let inserts = [
        DiscreteUncertainPoint::certain(Point::new(1.5, -2.0)),
        DiscreteUncertainPoint::uniform(vec![Point::new(20.0, 20.0), Point::new(22.0, 19.0)]),
    ];
    let mut updates: Vec<Update> = [5usize, 60, 111]
        .iter()
        .map(|&id| Update::Remove(id))
        .collect();
    updates.push(Update::Move {
        id: 17,
        to: moved_to.clone(),
    });
    updates.extend(inserts.iter().cloned().map(Update::Insert));
    let Reply::Apply {
        epoch,
        live: live_n,
        removed,
        moved,
        missed,
        inserted,
        ..
    } = c.call(&Request::Apply(updates)).unwrap()
    else {
        panic!("not an apply reply");
    };
    assert_eq!((epoch, removed, moved, missed), (1, 3, 1, 0));
    assert_eq!(inserted, vec![120, 121]);
    live.retain(|(id, _)| ![5, 60, 111].contains(id));
    live.iter_mut().find(|(id, _)| *id == 17).unwrap().1 = moved_to;
    live.extend(inserted.into_iter().zip(inserts));
    assert_eq!(live_n as usize, live.len());
    check_epoch(&mut c, &live);
    h.shutdown();
}
