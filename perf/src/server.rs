//! Process handling: the scratch directory, the `tasti_cli` children (build
//! and serve), and the in-process stand-in the smoke test uses instead.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tasti::data::OracleLabeler;
use tasti::index::persist;
use tasti::labeler::MeteredLabeler;
use tasti::serve::{Client, LabelerFactory, ServeConfig, Server, TastiService};

use crate::fixture::{self, Profile, CORPUS_SEED, DATASET};

/// How long a child may take to print its address or finish a build before
/// the run is failed instead of hung.
const CHILD_DEADLINE: Duration = Duration::from_secs(120);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Generous: a cold query's reply waits for its crack pass.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A per-run directory under `<target>/perf-scratch/`, removed on drop —
/// on every exit path, panics included.
pub struct Scratch {
    pub dir: PathBuf,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // target/release/tasti-perf → target/perf-scratch/…
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("the benchmark executable has no target directory above it")?;
        let dir = target.join("perf-scratch").join(format!(
            "run-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Filesystem type under the scratch directory (longest matching mount
    /// point in `/proc/mounts`); `unknown` off Linux.
    pub fn fs_type(&self) -> String {
        let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
            return "unknown".into();
        };
        let dir = self.dir.canonicalize().unwrap_or_else(|_| self.dir.clone());
        mounts
            .lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
                dir.starts_with(mount)
                    .then(|| (mount.len(), ty.to_string()))
            })
            .max_by_key(|(len, _)| *len)
            .map(|(_, ty)| ty)
            .unwrap_or_else(|| "unknown".into())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total bytes of the regular files under `path` (a file or a directory).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Where servers and builds run.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Real `tasti_cli` child processes — what the benchmark measures.
    Child { cli: PathBuf },
    /// The same library calls inside this process — for the smoke test,
    /// which must not need a pre-built binary.
    InProcess,
}

impl Backend {
    /// The `tasti_cli` built next to this executable.
    pub fn child() -> Result<Backend, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let cli = exe
            .parent()
            .map(|d| d.join("tasti_cli"))
            .filter(|p| p.is_file())
            .ok_or_else(|| {
                format!(
                    "tasti_cli not found next to {}: build both binaries first \
                     (cargo build --release --manifest-path perf/Cargo.toml)",
                    exe.display()
                )
            })?;
        Ok(Backend::Child { cli })
    }
}

/// What a server is started with.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub index: PathBuf,
    /// Dataset size the oracle covers (≥ the index's records).
    pub n: usize,
    pub snapshot: PathBuf,
    pub ingest_dir: Option<PathBuf>,
    /// Fold query-paid labels back into the index after each query
    /// (`false` = `--no-crack`, a frozen index).
    pub crack: bool,
}

/// What a fixture build produced.
#[derive(Debug, Clone, Copy)]
pub struct BuildOutcome {
    pub wall_s: f64,
    pub invocations: u64,
}

impl Backend {
    /// Builds the `serve_*` fixture: `tasti_cli build` over the whole
    /// `profile.records`-record dataset, saved to `out`.
    pub fn build(&self, profile: &Profile, out: &Path) -> Result<BuildOutcome, String> {
        let t = Instant::now();
        match self {
            Backend::Child { cli } => {
                let mut child = Command::new(cli)
                    .arg("build")
                    .args(["--dataset", DATASET])
                    .args(["--n", &profile.records.to_string()])
                    .args(["--seed", &CORPUS_SEED.to_string()])
                    .args(["--train", &profile.train.to_string()])
                    .args(["--reps", &profile.reps.to_string()])
                    .args(["--dim", &profile.dim.to_string()])
                    .arg("--out")
                    .arg(out)
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
                let guard = KillOnDrop(&mut child);
                let stdout = wait_with_deadline(guard.0, CHILD_DEADLINE)?;
                drop(guard);
                let wall_s = t.elapsed().as_secs_f64();
                // "built night-street: N records, R reps, I labeler calls, …"
                let invocations = stdout
                    .split(", ")
                    .find_map(|part| part.strip_suffix(" labeler calls"))
                    .and_then(|n| n.trim().parse().ok())
                    .ok_or_else(|| format!("unexpected build output: {stdout}"))?;
                Ok(BuildOutcome {
                    wall_s,
                    invocations,
                })
            }
            Backend::InProcess => {
                let invocations =
                    fixture::build_fixture(profile.records, profile.records, profile, out)?;
                Ok(BuildOutcome {
                    wall_s: t.elapsed().as_secs_f64(),
                    invocations,
                })
            }
        }
    }

    /// Starts a server and waits until it accepts connections.
    pub fn serve(&self, spec: &ServeSpec) -> Result<Running, String> {
        match self {
            Backend::Child { cli } => ChildServer::spawn(cli, spec).map(Running::Child),
            Backend::InProcess => serve_in_process(spec).map(Running::InProcess),
        }
    }
}

struct KillOnDrop<'a>(&'a mut Child);

impl Drop for KillOnDrop<'_> {
    fn drop(&mut self) {
        // No-ops on a child that has already been waited for.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Waits for `child` to exit successfully and returns its stdout; a child
/// still running after `deadline` is killed and reported. Blocks on the
/// child's stdout rather than polling its status: a poll loop wakes this
/// process hundreds of times a second beside a build that wants both cores.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> Result<String, String> {
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = std::io::Read::read_to_string(&mut stdout, &mut text);
        let _ = tx.send(text);
    });
    // End of file on stdout: the child has exited (or is about to).
    let text = rx.recv_timeout(deadline);
    if text.is_err() {
        // Closes the pipe, which ends the reader.
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    reader.join().map_err(|_| "stdout reader panicked")?;
    match text {
        Ok(text) if status.success() => Ok(text),
        Ok(text) => Err(format!("child exited with {status}: {text}")),
        Err(_) => Err(format!("child still running after {deadline:?}")),
    }
}

/// A running `tasti_cli serve` child. Dropping it kills the process and
/// waits for it, so no exit path leaves a server behind.
pub struct ChildServer {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ChildServer {
    fn spawn(cli: &Path, spec: &ServeSpec) -> Result<ChildServer, String> {
        let mut cmd = Command::new(cli);
        cmd.arg("serve")
            .arg("--index")
            .arg(&spec.index)
            .args(["--dataset", DATASET])
            .args(["--n", &spec.n.to_string()])
            .args(["--seed", &CORPUS_SEED.to_string()])
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", "2", "--queue-depth", "16"])
            .arg("--snapshot")
            .arg(&spec.snapshot);
        if let Some(dir) = &spec.ingest_dir {
            cmd.arg("--ingest-dir").arg(dir);
        }
        if !spec.crack {
            cmd.arg("--no-crack");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // Keeps draining after the address line so the child never blocks
        // on a full pipe; ends when the child's stdout closes.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = ChildServer {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        // Lines before the "serving … on ADDR" line (the log replay report).
        let mut preamble = Vec::new();
        let start = Instant::now();
        loop {
            let left = CHILD_DEADLINE.saturating_sub(start.elapsed());
            match rx.recv_timeout(left) {
                Ok(line) => match parse_serving_line(&line) {
                    Some(addr) => {
                        server.addr = addr;
                        // Later lines ("drained; …") are dropped with `rx`.
                        return Ok(server);
                    }
                    None => preamble.push(line),
                },
                Err(_) => {
                    return Err(format!(
                        "server never printed its address (output so far: {preamble:?})"
                    ));
                }
            }
        }
    }

    /// Peak resident set of the child so far (`VmHWM`), in MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    fn kill(&mut self) {
        let _ = self.child.kill(); // SIGKILL
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The address out of "serving N records (R reps) on ADDR — …".
fn parse_serving_line(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("serving ")?
        .split(" on ")
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A server inside this process, assembled the way `tasti_cli serve` does.
pub struct InProcessServer {
    server: Option<Server<OracleLabeler>>,
    addr: SocketAddr,
}

fn serve_in_process(spec: &ServeSpec) -> Result<InProcessServer, String> {
    let (dataset, _) = fixture::dataset(spec.n);
    let index = persist::load_with_fallback(&spec.index)
        .map_err(|e| e.to_string())?
        .index;
    let truth = dataset.truth_handle();
    let config = ServeConfig {
        workers: 2,
        queue_depth: 16,
        snapshot_path: Some(spec.snapshot.clone()),
        ingest_dir: spec.ingest_dir.clone(),
        crack_after_queries: spec.crack,
        ..ServeConfig::default()
    };
    let factory: LabelerFactory<OracleLabeler> =
        Box::new(move |_name: &str| MeteredLabeler::new(fixture::oracle(Arc::clone(&truth))));
    let labeler = factory("default");
    let service = Arc::new(TastiService::with_factory(index, labeler, config, factory)?);
    let server = Server::start(service).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    Ok(InProcessServer {
        server: Some(server),
        addr,
    })
}

impl Drop for InProcessServer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

/// A started server of either backend.
pub enum Running {
    Child(ChildServer),
    InProcess(InProcessServer),
}

impl Running {
    pub fn addr(&self) -> SocketAddr {
        match self {
            Running::Child(s) => s.addr,
            Running::InProcess(s) => s.addr,
        }
    }

    /// Peak resident set in MB: the child's, or this process's when the
    /// server runs in-process.
    pub fn peak_rss_mb(&self) -> f64 {
        match self {
            Running::Child(s) => s.peak_rss_mb(),
            Running::InProcess(_) => vm_hwm_mb("/proc/self/status"),
        }
        .unwrap_or(0.0)
    }

    /// A client with connect and read deadlines, so a wedged server yields
    /// failed operations instead of a hung benchmark.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_with_timeouts(self.addr(), Some(CONNECT_TIMEOUT), Some(READ_TIMEOUT))
            .map_err(|e| format!("connect {}: {e}", self.addr()))
    }

    /// Stops the server without a drain: SIGKILL for a child (the OS page
    /// cache survives, so this is a process crash, not a power loss); an
    /// in-process server can only be shut down, which takes no snapshot
    /// either.
    pub fn kill(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_line_yields_the_address() {
        let line = "serving 2100 records (200 reps) on 127.0.0.1:40599 — evented core, 2 \
                    workers, queue depth 16; drain with: tasti_cli probe shutdown --addr \
                    127.0.0.1:40599";
        assert_eq!(
            parse_serving_line(line),
            Some("127.0.0.1:40599".parse().unwrap())
        );
        assert_eq!(parse_serving_line("ingest log: replayed 3 frame(s)"), None);
    }

    #[test]
    fn scratch_is_removed_on_drop_and_knows_its_filesystem() {
        let scratch = Scratch::create().unwrap();
        let dir = scratch.dir.clone();
        std::fs::write(scratch.path("x"), b"abc").unwrap();
        assert_eq!(disk_bytes(&dir), 3);
        assert!(!scratch.fs_type().is_empty());
        drop(scratch);
        assert!(!dir.exists());
    }
}
