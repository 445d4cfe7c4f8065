//! Set-up: everything that happens before the clock starts. Simulated data
//! from the seed, the analysis service bootstrapped the way
//! `diagnet serve` bootstraps it (`cli::serve::build_state`), the server on an
//! ephemeral loopback port, and the request bytes.

use crate::client::render_request;
use crate::loadgen::Pool;
use crate::spec::{ModelSize, Shape, Workload, HELD_OUT_SCENARIOS, MODEL_SEED, TRAFFIC_SCENARIOS};
use diagnet::backend::BackendKind;
use diagnet::config::DiagNetConfig;
use diagnet_platform::service::{AnalysisService, ServiceConfig};
use diagnet_platform::trainer::TrainReport;
use diagnet_server::{AppState, Json, Server, ServerConfig};
pub use diagnet_sim::dataset::Sample;
use diagnet_sim::dataset::{Dataset, DatasetConfig};
use diagnet_sim::metrics::FeatureSchema;
use diagnet_sim::world::Label;
pub use diagnet_sim::world::World;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Far above the admission gate's `max_magnitude` (1e9): JSON cannot carry
/// NaN, so a corrupt probe is one with an absurd value.
const CORRUPT_VALUE: f64 = 1.0e12;

/// The model configuration a workload serves or trains.
pub fn model_config(workload: &Workload) -> DiagNetConfig {
    let mut config = match workload.model {
        ModelSize::Paper => DiagNetConfig::paper(),
        ModelSize::Fast => DiagNetConfig::fast(),
    };
    if let Shape::Train { epochs } = workload.shape {
        // Constant work, even if a later change moves the loss curve.
        config.epochs = epochs;
        config.patience = None;
    }
    config
}

pub fn world() -> World {
    World::new()
}

pub fn simulate(world: &World, scenarios: usize, seed: u64) -> Result<Dataset, String> {
    Dataset::generate(world, &DatasetConfig::standard(world, scenarios, seed))
        .map_err(|e| format!("generating {scenarios} scenarios: {e}"))
}

/// An analysis service configured as `diagnet serve` configures it without
/// `--model` or `--state-dir`; no generation is published yet.
pub fn new_service(world: &World, config: DiagNetConfig) -> AppState {
    let service_config = ServiceConfig {
        backend: BackendKind::DiagNet,
        model: config,
        seed: MODEL_SEED,
        rollout: None,
        min_service_samples: usize::MAX,
        general_services: world.catalog.all_ids(),
        ..ServiceConfig::default()
    };
    AppState {
        service: Arc::new(AnalysisService::new(service_config, world.schema.clone())),
        schema: world.schema.clone(),
        n_services: world.catalog.len(),
    }
}

/// Submits every probe through admission; the time each call took, in ns.
pub fn submit_all(state: &AppState, data: Vec<Sample>) -> Result<Vec<u64>, String> {
    let mut took = Vec::with_capacity(data.len());
    for sample in data {
        let begin = Instant::now();
        let outcome = state.service.submit(sample);
        took.push(begin.elapsed().as_nanos() as u64);
        if !outcome.accepted() {
            return Err(format!(
                "a simulated training probe was not accepted: {outcome:?}"
            ));
        }
    }
    Ok(took)
}

/// Trains one generation on what was submitted and publishes it.
pub fn train(state: &AppState) -> Result<TrainReport, String> {
    state
        .service
        .retrain_now()
        .map_err(|e| format!("training the generation: {e}"))
}

/// Starts the serving edge with the product's default settings on an
/// ephemeral loopback port. Dropping the server drains and joins it.
pub fn serve(state: &AppState) -> Result<(Server, SocketAddr), String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server =
        Server::start(config, state.clone()).map_err(|e| format!("binding the server: {e}"))?;
    let addr = server.local_addr();
    Ok((server, addr))
}

/// The probes the workload's model is trained on.
pub fn training_probes(world: &World, workload: &Workload) -> Result<Vec<Sample>, String> {
    Ok(simulate(world, workload.scenarios, MODEL_SEED)?.samples)
}

/// A trained service behind a listening server, with the run's traffic:
/// everything a serving workload needs before its first measured request.
pub struct Live {
    pub world: World,
    pub state: AppState,
    /// The report of the bootstrap generation's training.
    pub train: TrainReport,
    /// Held so that the server keeps running; dropping it drains and joins it.
    _server: Server,
    pub addr: SocketAddr,
    pub traffic: Traffic,
}

/// `batch` is the number of probes in one diagnose request of the traffic.
pub fn go_live(workload: &Workload, seed: u64, batch: usize) -> Result<Live, String> {
    let world = world();
    let state = new_service(&world, model_config(workload));
    submit_all(&state, training_probes(&world, workload)?)?;
    let train = train(&state)?;
    let (server, addr) = serve(&state)?;
    Ok(Live {
        train,
        _server: server,
        addr,
        traffic: traffic(&world, seed, batch)?,
        state,
        world,
    })
}

/// The traffic of a run: probes the served model has not seen, as samples
/// (for the in-process replay) and as request bytes.
pub struct Traffic {
    pub samples: Vec<Sample>,
    pub pool: Pool,
}

/// The probes of `seed`'s traffic.
pub fn traffic_probes(world: &World, seed: u64) -> Result<Vec<Sample>, String> {
    Ok(simulate(world, TRAFFIC_SCENARIOS, seed.wrapping_add(1))?.samples)
}

/// Renders `seed`'s traffic: a diagnose request for every `batch` probes
/// (a batch names the service of its first probe), a submit for every probe,
/// and a few corrupt submits.
pub fn traffic(world: &World, seed: u64, batch: usize) -> Result<Traffic, String> {
    let samples = traffic_probes(world, seed)?;
    let mut pool = Pool::default();
    let [diagnose, submit, corrupt] = &mut pool.requests;
    for group in samples.chunks_exact(batch) {
        let probes: Vec<&[f32]> = group.iter().map(|s| s.features.as_slice()).collect();
        diagnose.push(diagnose_request(group[0].service.0, &probes));
    }
    for sample in &samples {
        submit.push(submit_request(sample, &world.schema, None));
    }
    for sample in samples.iter().take(32) {
        corrupt.push(submit_request(sample, &world.schema, Some(CORRUPT_VALUE)));
    }
    Ok(Traffic { samples, pool })
}

/// One faulty probe from each of [`HELD_OUT_SCENARIOS`] scenarios that no
/// model was trained on, with the index of its true cause in the schema. Like
/// the model, the same in every run: which faults are drawn moves recall by
/// several percent, which is more than a change to the numerics would.
pub fn held_out(world: &World) -> Result<Vec<(Sample, usize)>, String> {
    let data = simulate(world, HELD_OUT_SCENARIOS, MODEL_SEED + 4200)?;
    let per_scenario = data.samples.len() / HELD_OUT_SCENARIOS;
    let mut picked = Vec::with_capacity(HELD_OUT_SCENARIOS);
    for scenario in data.samples.chunks(per_scenario) {
        let faulty = scenario
            .iter()
            .find_map(|s| Some((s, world.schema.index_of(s.label.cause()?)?)));
        if let Some((sample, cause)) = faulty {
            picked.push((sample.clone(), cause));
        }
    }
    Ok(picked)
}

fn features_json(features: &[f32]) -> Json {
    Json::Arr(features.iter().map(|&v| Json::from_f32(v)).collect())
}

/// `POST /v1/diagnose` for one probe (`features`) or several (`probes`).
pub fn diagnose_request(service: usize, probes: &[&[f32]]) -> Vec<u8> {
    let payload = match probes {
        [one] => ("features", features_json(one)),
        many => (
            "probes",
            Json::Arr(many.iter().map(|p| features_json(p)).collect()),
        ),
    };
    let body = Json::obj(vec![payload, ("service", Json::Num(service as f64))]);
    render_request("POST", "/v1/diagnose", &body.render())
}

/// `POST /v1/submit`; with `corrupt`, the first feature is replaced by it.
fn submit_request(sample: &Sample, schema: &FeatureSchema, corrupt: Option<f64>) -> Vec<u8> {
    let mut features = features_json(&sample.features);
    if let (Some(value), Json::Arr(values)) = (corrupt, &mut features) {
        values[0] = Json::Num(value);
    }
    let label = match &sample.label {
        Label::Faulty { cause, region, .. } => schema.index_of(*cause).map(|index| {
            Json::obj(vec![
                ("cause_index", Json::Num(index as f64)),
                ("region", Json::str(region.code())),
            ])
        }),
        Label::Nominal => None,
    };
    let body = Json::obj(vec![
        ("features", features),
        ("service", Json::Num(sample.service.0 as f64)),
        ("region", Json::str(sample.client_region.code())),
        ("plt_s", Json::from_f32(sample.plt_s)),
        ("label", label.unwrap_or(Json::Null)),
    ]);
    render_request("POST", "/v1/submit", &body.render())
}
