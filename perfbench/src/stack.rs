//! The system under test: an in-process [`Server`] over an [`Engine`]
//! with engine and server defaults (mutate adds a data directory under
//! `FsyncPolicy::EveryN(64)`), and the timed set-up that builds it.

use crate::inputs::{Inputs, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wqrtq_engine::{Engine, EngineBuilder, FsyncPolicy};
use wqrtq_geom::Weight;
use wqrtq_server::{Client, Server};

/// The fsync policy of the mutate workload's write-ahead log.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(64);

/// A directory the run may write into, removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<root>/<name>` afresh.
    pub fn new(root: &Path, name: &str) -> std::io::Result<ScratchDir> {
        let dir = root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total bytes of the files in the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The engine configuration of a workload: defaults, plus the WAL for
/// mutate.
pub fn engine_builder(workload: Workload, data_dir: Option<&Path>) -> EngineBuilder {
    let builder = Engine::builder();
    match (workload, data_dir) {
        (Workload::Mutate, Some(dir)) => builder.data_dir(dir).fsync(FSYNC),
        _ => builder,
    }
}

/// Registers every dataset and weight set of `inputs` on `engine` and
/// builds every index and dominance mask (the catalog builds them lazily
/// on first use; a handle forces them).
pub fn load(engine: &Engine, inputs: &Inputs, coords: Vec<Vec<f64>>) -> Result<(), String> {
    for (ds, coords) in inputs.datasets.iter().zip(coords) {
        engine
            .register_dataset(&ds.name, ds.dim, coords)
            .map_err(|e| format!("register {}: {e}", ds.name))?;
    }
    for (name, ws) in &inputs.weights {
        engine
            .register_weights(name, ws.iter().map(|w| Weight::new(w.clone())).collect())
            .map_err(|e| format!("register weights {name}: {e}"))?;
    }
    for ds in &inputs.datasets {
        engine
            .catalog()
            .handle(&ds.name)
            .map_err(|e| format!("index {}: {e}", ds.name))?;
    }
    Ok(())
}

/// Builds the engine, loads `inputs`, binds the server on loopback and
/// serves one ping. Returns the server and the seconds this took; the
/// coordinate copies handed to the catalog are made before the clock
/// starts.
pub fn setup(inputs: &Inputs, data_dir: Option<&Path>) -> Result<(Server, f64), String> {
    let coords: Vec<Vec<f64>> = inputs.datasets.iter().map(|d| d.coords.clone()).collect();
    let started = Instant::now();
    let engine = engine_builder(inputs.workload, data_dir)
        .try_build()
        .map_err(|e| format!("engine build: {e}"))?;
    load(&engine, inputs, coords)?;
    let server = Server::builder()
        .engine(engine)
        .bind("127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok((server, started.elapsed().as_secs_f64()))
}
