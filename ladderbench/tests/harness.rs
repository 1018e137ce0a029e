//! Tests of the benchmark harness itself.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::Duration;

use ladderbench::gen::{self, QueryStream, Stream};
use ladderbench::oracle::{Answer, Check};
use ladderbench::report::{END_TO_END, PER_LAYER};
use ladderbench::stats::percentile;
use ladderbench::trace::{self_times, SpanRec};
use ladderbench::wire::open_loop;
use uncertain_engine::server::protocol::{encode_reply, read_frame, Reply, REQUEST_FRAME_MAX};
use uncertain_engine::{Engine, EngineConfig, QueryRequest, SiteId, Update};

#[test]
fn same_seed_gives_identical_query_and_update_streams() {
    let queries = |seed| QueryStream::uniform(seed, Stream::Queries, 0, 50.0).take(300);
    assert_eq!(queries(7), queries(7));
    assert_ne!(queries(7), queries(8));
    let hot = |seed| QueryStream::zipf_pool(seed, 1, 50.0).take(300);
    assert_eq!(hot(7), hot(7));
    assert_ne!(hot(7), hot(8));

    let updates = |seed| {
        let mut s = gen::updates(seed, gen::churn_span(), (0..500).collect());
        let mut next_id = 500;
        (0..5)
            .map(|_| {
                let batch = s.tick(gen::CHURN_RATE);
                let n = batch
                    .iter()
                    .filter(|u| matches!(u, Update::Insert(_)))
                    .count();
                gen::observe_inserted(&mut s, (next_id..next_id + n).collect());
                next_id += n;
                batch
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(updates(7), updates(7));
    assert_ne!(updates(7), updates(8));

    let sites = |seed| {
        gen::sites(50, 100.0, seed)
            .points
            .iter()
            .map(|p| (p.locations().to_vec(), p.weights().to_vec()))
            .collect::<Vec<_>>()
    };
    assert_eq!(sites(7), sites(7));
    assert_ne!(sites(7), sites(8));
}

/// A fake `unc/1` server that answers every frame with an empty NN≠0
/// reply, after sleeping `stall` before the first.
fn fake_server(stall: Duration) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let h = std::thread::spawn(move || {
        let (mut r, _) = listener.accept().expect("accept");
        let mut w = r.try_clone().expect("clone socket");
        let mut first = true;
        while let Ok(f) = read_frame(&mut r, REQUEST_FRAME_MAX) {
            if std::mem::take(&mut first) {
                std::thread::sleep(stall);
            }
            w.write_all(&encode_reply(f.req_id, &Reply::Nonzero(vec![])))
                .expect("reply");
        }
    });
    (addr, h)
}

fn open_loop_median_ms(stall: Duration) -> f64 {
    let (addr, server) = fake_server(stall);
    let reqs = QueryStream::uniform(1, Stream::Queries, 0, 10.0).take(200);
    let tracer = ladderbench::trace::Tracer::new(false);
    let out = open_loop(addr, "test", &reqs, 1000.0, &tracer, 0).expect("open loop");
    server.join().expect("fake server");
    assert_eq!(out.phase.answered, 200);
    assert_eq!(out.phase.unreplied, 0);
    let latency: Vec<f64> = out.replies.iter().map(|r| r.1).collect();
    ladderbench::stats::median(&latency)
}

#[test]
fn open_loop_latency_counts_from_the_scheduled_send() {
    // 200 requests due 1 ms apart. A 150 ms stall on the first one holds
    // back the replies of every request due during the stall, and each is
    // charged from its due time: the median request waits tens of ms.
    let stalled = open_loop_median_ms(Duration::from_millis(150));
    let prompt = open_loop_median_ms(Duration::ZERO);
    assert!(stalled > 20.0, "stalled median {stalled} ms");
    assert!(prompt < 10.0, "prompt median {prompt} ms");
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.5), Some(10.0));
    assert_eq!(percentile(&xs, 0.99), None);
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.99), Some(990.0));
    assert_eq!(percentile(&xs[..999], 0.99), None);
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn answer_check_catches_a_one_ulp_change() {
    let set = gen::sites(300, 40.0, 3);
    let ids: Vec<SiteId> = (0..set.len()).collect();
    let engine = Engine::new(set.clone(), EngineConfig::default());
    let reqs = QueryStream::uniform(3, Stream::Queries, 0, 30.0).take(30);
    let resp = engine.run_batch(&reqs);
    let sample: Vec<(QueryRequest, Answer)> = reqs
        .iter()
        .zip(&resp.results)
        .map(|(r, a)| (*r, Answer::from_result(a)))
        .collect();
    let mut check = Check::default();
    check.run(&set, &ids, &sample);
    assert_eq!(check.total(), 30);
    assert_eq!(check.mismatches, 0, "{}", check.summary());

    let (req, mut bumped) = sample
        .iter()
        .find_map(|(r, a)| match a {
            Answer::Ranked(items) if !items.is_empty() => Some((*r, items.clone())),
            _ => None,
        })
        .expect("a nonempty ranked answer");
    bumped[0].1 += 1;
    let mut check = Check::default();
    check.run(&set, &ids, &[(req, Answer::Ranked(bumped))]);
    assert_eq!(check.mismatches, 1);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |id, parent, start_ns, end_ns| SpanRec {
        id,
        parent,
        group: 0,
        name: if parent == 0 { "root" } else { "child" },
        start_ns,
        end_ns,
    };
    // Children overlap (10..40 and 30..60) and one spills past the root.
    let spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 1, 30, 60),
        span(4, 1, 90, 120),
    ];
    let t = self_times(&spans);
    assert_eq!(t["root"].total_ns, 100);
    assert_eq!(t["root"].self_ns, 100 - 50 - 10);
    assert_eq!(t["child"].count, 3);
    assert_eq!(t["child"].self_ns, t["child"].total_ns);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in ["wire-fresh", "wire-hot", "churn-50k"] {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    let names = json.matches("\"name\": ").count();
    assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
}
