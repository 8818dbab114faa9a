//! Serving persisted indexes: build once, answer many queries concurrently.
//!
//! Session 1 builds two indexes over a video — the trained TASTI and a
//! cheaper pretrained-only variant — and saves them. Session 2 is a
//! *server process*: it loads the trained index as the default, registers
//! the variant as a named co-tenant (`pretrained`), starts `tasti-serve`
//! on an ephemeral loopback port, and four concurrent clients each run a
//! different query type against the default while a fifth routes to the
//! named index via the request's `"index"` field. The labels those queries
//! pay for are folded back into each index between requests (cracking,
//! metered per index), and a final snapshot persists the enriched default.
//!
//! The same shape is reachable from outside the process:
//!
//! ```sh
//! cargo run --release -- serve --index idx.json --index pt=idx2.json \
//!     --dataset night-street
//! cargo run --release -- probe agg --addr 127.0.0.1:PORT --class car
//! cargo run --release -- probe agg --addr 127.0.0.1:PORT --class car --index pt
//! cargo run --release -- probe index-list --addr 127.0.0.1:PORT
//! ```
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::Arc;

use tasti::index::persist;
use tasti::prelude::*;
use tasti::serve::{Client, Op, Request, ScoreSpec, ServeConfig, Server, TastiService};

fn main() {
    let video = tasti::data::video::night_street(4_000, 11);
    let dataset = &video.dataset;
    let path = std::env::temp_dir().join("tasti_serving_example.json");
    let pt_path = std::env::temp_dir().join("tasti_serving_example_pt.json");

    // ── Session 1: build and persist both indexes.
    {
        let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
        let config = TastiConfig {
            n_train: 200,
            n_reps: 400,
            embedding_dim: 24,
            ..TastiConfig::default()
        };
        let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 3);
        let pretrained = pt.embed_all(&dataset.features);
        let (index, report) = build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            &config,
        )
        .expect("construction within budget");
        persist::save(&index, &path).expect("save index");
        println!(
            "built trained index ({} labeler calls), saved to {}",
            report.total_invocations,
            path.display()
        );
        // The co-tenant: same dataset, no embedding training (TASTI-PT).
        let (pt_index, pt_report) = build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            &config.clone().pretrained_only(),
        )
        .expect("construction within budget");
        persist::save(&pt_index, &pt_path).expect("save pt index");
        println!(
            "built pretrained-only index ({} labeler calls), saved to {}",
            pt_report.total_invocations,
            pt_path.display()
        );
    }

    // ── Session 2: the server. Loading pays zero labeler invocations.
    // The trained index is the default route; the pretrained-only variant
    // serves as the named co-tenant "pretrained" with its own meter.
    let index = persist::load(&path).expect("load index");
    let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
    let config = ServeConfig {
        // Connections live on the reactor's one event-loop thread; the 4
        // workers only run query/oracle compute.
        workers: 4,
        snapshot_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let service = Arc::new(TastiService::new(index, labeler, config));
    service
        .insert_index(
            "pretrained",
            persist::load(&pt_path).expect("load pt index"),
            MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle())),
            None,
            Some(pt_path.clone()),
        )
        .expect("register co-tenant");
    let server = Server::start(service).expect("bind loopback");
    let addr = server.local_addr();
    println!(
        "serving on {addr} with {} reps (default) + co-tenant 'pretrained'",
        server.service().index().reps().len()
    );

    // ── Four concurrent clients, one query type each.
    let mut requests = Vec::new();

    let mut agg = Request::new(Op::EbsAggregate);
    agg.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
    agg.error_target = Some(0.2);
    agg.seed = Some(1);
    requests.push(("avg cars/frame (EBS)", agg));

    let mut supg = Request::new(Op::SupgRecallTarget);
    supg.score = Some(ScoreSpec::HasAtLeast(ObjectClass::Car, 2));
    supg.recall_target = Some(0.9);
    supg.budget = Some(400);
    supg.seed = Some(2);
    requests.push(("frames with ≥2 cars (SUPG recall)", supg));

    let mut limit = Request::new(Op::LimitQuery);
    limit.score = Some(ScoreSpec::HasClass(ObjectClass::Bus));
    limit.k_matches = Some(5);
    requests.push(("5 bus frames (limit)", limit));

    let mut pred = Request::new(Op::PredicateAggregate);
    pred.predicate = Some(ScoreSpec::HasClass(ObjectClass::Bus));
    pred.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
    pred.budget = Some(300);
    pred.seed = Some(3);
    requests.push(("avg cars among bus frames (predicate agg)", pred));

    // The fifth client routes to the named co-tenant: same wire protocol,
    // plus an "index" field; its oracle labels are metered separately.
    let mut routed = Request::new(Op::EbsAggregate);
    routed.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
    routed.error_target = Some(0.2);
    routed.seed = Some(4);
    routed.index = Some("pretrained".to_string());
    requests.push(("avg cars/frame on 'pretrained' (EBS)", routed));

    let handles: Vec<_> = requests
        .into_iter()
        .map(|(what, req)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let reply = client.call(req).expect("round trip");
                (what, reply)
            })
        })
        .collect();
    for h in handles {
        let (what, reply) = h.join().expect("client thread");
        assert!(reply.ok, "{what}: {:?}", reply.error_message);
        println!("{what}: {}", reply.result.to_json());
    }

    // ── Admin surface: registry listing, metrics, snapshot of the cracked
    // default index, drain.
    let mut admin = Client::connect(addr).expect("connect admin");
    let listing = admin.call(Request::new(Op::IndexList)).expect("index_list");
    println!("registry: {}", listing.result.to_json());
    let stats = admin.index_stats().expect("stats");
    println!("default index after cracking: {}", stats.result.to_json());
    let snap = admin.snapshot().expect("snapshot");
    println!("snapshot: {}", snap.result.to_json());
    admin.shutdown().expect("shutdown request");
    let folded = server.join();
    println!("drained; final fold-in added {folded} reps");

    let reloaded = persist::load(&path).expect("reload snapshot");
    println!("snapshot reloads with {} reps", reloaded.reps().len());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&pt_path).ok();
}
