//! Real-process crash injection: SIGKILL live processes mid-traffic (and
//! mid-*recovery*), recover, and check the stitched history.
//!
//! The in-process engines ([`crate::sim`], [`crate::explore`]) *simulate*
//! crashes: volatile state is dropped by code that runs at the crash point.
//! This module removes that last layer of simulation. A **parent** process
//! re-executes the current binary in worker mode (see [`maybe_run_worker`])
//! as the crash fabric: one child *per paper process*, all mapping the same
//! NVM files through [`MappedMemory`], so what survives a death is decided
//! by the kernel, not by the harness — the paper's per-process crash model
//! made literal. The parent SIGKILLs a randomized *subset* of the workers
//! mid-traffic ([`CrashCycleConfig::kill_subset`]) while the survivors keep
//! running and re-barrier, then runs each dead process's recovery **in its
//! own child**, SIGKILLing that recoverer mid-recovery up to
//! [`CrashCycleConfig::recovery_kills`] nested times before letting the
//! final re-entry converge.
//!
//! Every kill — worker or recoverer — is a crash the parent declares: it
//! wipes the shared-cache overlay file (in the shared-cache model the
//! cache is one volatile store all processes share, so its crash is
//! system-wide and every worker dies with it) and then bumps the data
//! file's crash ordinal ([`MappedFile::bump_crash_count`]).
//!
//! Finally the parent resolves every operation the durable log proves was
//! in flight and checks the stitched pre-crash + partial-recovery +
//! re-recovery history with the windowed linearizability checker
//! ([`check_records_windowed`]).
//!
//! # The durable operation log
//!
//! Alongside the data file the workers append to a second mapped file: a
//! global sequence counter in header slot [`MappedFile::user`]`(0)` and a
//! fixed region of 4-word records per process —
//! `[seq, tag, op_key, resp]`, with `seq` stored **last** as the commit
//! marker (a record whose first word is still 0 was torn by the kill and
//! is ignored; its process wrote no later record). Invocation records are
//! written *after* [`RecoverableObject::prepare`] — recovery must only run
//! for fully-announced operations, otherwise it would read a stale
//! previous announcement — and *before* the operation machine's first
//! step, so the recorded interval covers every point at which the
//! operation could have linearized. A recoverer that converges appends a
//! [`TAG_RECOVERY`] record *into the dead process's region*, closing the
//! open invocation; because the record commits with one final `seq` store,
//! a recoverer killed mid-append leaves the invocation open and the next
//! re-entry simply recovers again — the on-log image of the paper's
//! idempotent `Op.Recover`.
//!
//! # Quiescent cuts and the cross-process barrier
//!
//! The exact checker is exponential in the number of overlapping
//! operations, so workers rendezvous every
//! [`CrashCycleConfig::barrier_every`] operations. Each rendezvous is a
//! quiescent cut in the sequence order: every pre-barrier operation's
//! return record precedes every post-barrier invocation record, which is
//! exactly the split [`check_records_windowed`] needs. Workers share no
//! address space, so the barrier runs over the log file's header: worker
//! `p` stores its round in user slot `4 + p` and waits until the
//! parent-owned release word (user slot 1) reaches that round, yielding
//! its CPU between polls before it falls back to short sleeps. The parent
//! releases a round only when every *live* worker has arrived — and
//! deliberately **withholds** releases while recoveries run, so the
//! survivors park at their next cut and a dead process's operation
//! overlaps at most one window of survivor traffic before its recovery
//! verdict lands.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use detectable::{ObjectKind, OpSpec, RecoverableObject};
use nvm::{
    run_to_completion, CacheMode, CrashPolicy, Layout, LayoutBuilder, MappedFile, MappedMemory,
    Pid, Word, RESP_FAIL,
};

use crate::driver::{op_from_key, op_key, Driver, RetryPolicy, StepOutcome};
use crate::history::{Event, History};
use crate::linearize::{check_records_windowed, MAX_CHECKED_OPS};
use crate::scenario::{build_kind, RunStats};
use crate::workload::mixed_op;

/// Words per log record: `[seq, tag, op_key, resp]`.
pub const RECORD_WORDS: usize = 4;
/// Log record tag: the operation was invoked (announced and about to run).
pub const TAG_INVOKE: Word = 1;
/// Log record tag: the operation returned `resp`.
pub const TAG_RETURN: Word = 2;
/// Log record tag: a recoverer resolved the open invocation with this
/// verdict (`resp` holds [`RESP_FAIL`] or the operation's response).
pub const TAG_RECOVERY: Word = 3;

/// Machine-step budget per operation in the worker (the algorithms are
/// bounded, but real-process contention stretches lock-free retry loops).
const WORKER_STEP_LIMIT: usize = 10_000_000;
/// Machine-step budget per recovery (recovery runs solo).
const RECOVERY_STEP_LIMIT: usize = 1_000_000;

/// The cycle's files, under [`CrashCycleConfig::dir`]: the NVM data, the
/// durable operation log, and (shared-cache cycles only) the volatile
/// cache overlay.
const DATA_FILE: &str = "data.nvm";
const LOG_FILE: &str = "log.nvm";
const CACHE_FILE: &str = "cache.nvm";

/// Log-header user slots (see [`MappedFile::user`]): the global record
/// sequence counter, the parent-owned barrier release round, the
/// recoverer's armed flag, the parent-owned stall mask (bit `p` asks
/// worker `p` to pause mid-operation so a SIGKILL — which loses a race
/// against microsecond-scale operations — lands inside one, the way a real
/// scheduler preemption would), then one arrival word per worker.
const SLOT_SEQ: usize = 0;
const SLOT_RELEASE: usize = 1;
const SLOT_ARMED: usize = 2;
const SLOT_STALL: usize = 3;
const SLOT_ARRIVAL0: usize = 4;

/// How long a stalled worker waits for its SIGKILL before giving up and
/// continuing (the parent kills within microseconds; the bound only
/// matters if the kill never comes).
const STALL_LIMIT: Duration = Duration::from_millis(5);

/// Recovery is solo and typically resolves in a handful of machine steps —
/// far too fast for a SIGKILL racing from another process to land inside
/// it. When the parent *plans* a mid-recovery kill it asks the recoverer to
/// pace itself: sleep this long between machine steps for the first
/// [`PACED_STEPS`] steps, stretching the mutation sequence across a window
/// the kill can actually hit (the final, clean re-entry runs unpaced).
const RECOVERY_PACE_US: u64 = 40;
const PACED_STEPS: usize = 500;
/// The mid-recovery kill lands uniformly within this many microseconds of
/// the recoverer arming (storing 1 into user slot [`SLOT_ARMED`]).
const RECOVERY_KILL_WINDOW_US: u64 = 600;

const ENV_WORKER: &str = "PC_WORKER";
const ENV_DIR: &str = "PC_DIR";
const ENV_OBJECT: &str = "PC_OBJECT";
const ENV_KIND: &str = "PC_KIND";
const ENV_PROCS: &str = "PC_PROCS";
const ENV_OPS: &str = "PC_OPS";
const ENV_QCAP: &str = "PC_QCAP";
const ENV_BARRIER: &str = "PC_BARRIER";
const ENV_CACHE: &str = "PC_CACHE";
const ENV_POLICY: &str = "PC_POLICY";
const ENV_BASE: &str = "PC_BASE";
/// Worker index: the paper process this traffic child runs.
const ENV_PID: &str = "PC_PID";
/// Recoverer mode: the pid whose open invocation this child must resolve.
const ENV_RECOVER: &str = "PC_RECOVER";
/// Microseconds slept per machine step for the recoverer's first
/// [`PACED_STEPS`] steps (absent or 0 = unpaced).
const ENV_PACE: &str = "PC_RECOVER_PACE";

/// Exit code of a worker whose barrier wait was abandoned (parent gone).
const EXIT_ABANDONED: i32 = 103;
/// Exit code of a recoverer whose step budget ran out before a verdict.
const EXIT_UNRESOLVED: i32 = 102;

/// Polls [`wait_until`] makes with `yield_now` between them before it
/// falls back to sleeping. A 16-op round takes tens of microseconds, so a
/// timer sleep per poll would park a waiter far longer than its peers
/// take to arrive; yielding hands the CPU straight to those peers.
const SPIN_YIELDS: u32 = 2_000;
/// Sleep between a worker's barrier polls once its yields are spent.
const WORKER_NAP: Duration = Duration::from_micros(50);
/// Sleep between the parent's drain polls once its yields are spent.
const DRAIN_NAP: Duration = Duration::from_micros(100);

/// Builds the object named `name` for `n` processes into `b`, or `None` if
/// the name is unknown. Binaries that host crash cycles install one factory
/// covering every object they run — the parent builds its probe world and
/// the re-executed children build the traffic and recovery worlds through
/// the *same* factory, so every side constructs identical layouts.
pub type WorldFactory =
    fn(&str, &mut LayoutBuilder, u32, u32) -> Option<Box<dyn RecoverableObject>>;

/// The canonical name of `kind`'s paper-default implementation — the
/// [`WorldFactory`] key [`default_factory`] understands.
pub fn kind_name(kind: ObjectKind) -> &'static str {
    match kind {
        ObjectKind::Register => "register",
        ObjectKind::Cas => "cas",
        ObjectKind::MaxRegister => "max-register",
        ObjectKind::Counter => "counter",
        ObjectKind::Faa => "faa",
        ObjectKind::Swap => "swap",
        ObjectKind::Tas => "tas",
        ObjectKind::Queue => "queue",
    }
}

/// Inverse of [`kind_name`].
pub fn kind_from_name(name: &str) -> Option<ObjectKind> {
    Some(match name {
        "register" => ObjectKind::Register,
        "cas" => ObjectKind::Cas,
        "max-register" => ObjectKind::MaxRegister,
        "counter" => ObjectKind::Counter,
        "faa" => ObjectKind::Faa,
        "swap" => ObjectKind::Swap,
        "tas" => ObjectKind::Tas,
        "queue" => ObjectKind::Queue,
        _ => return None,
    })
}

/// A [`WorldFactory`] over the eight paper-default implementations, keyed
/// by [`kind_name`]. Extend by delegation:
///
/// ```ignore
/// fn my_factory(name: &str, b: &mut LayoutBuilder, n: u32, qcap: u32)
///     -> Option<Box<dyn RecoverableObject>> {
///     match name {
///         "nondetectable-register" => Some(Box::new(NonDetectableRegister::new(b, n))),
///         _ => default_factory(name, b, n, qcap),
///     }
/// }
/// ```
pub fn default_factory(
    name: &str,
    b: &mut LayoutBuilder,
    n: u32,
    queue_capacity: u32,
) -> Option<Box<dyn RecoverableObject>> {
    kind_from_name(name).map(|kind| build_kind(kind, b, n, queue_capacity))
}

/// The object `name` and its layout, built through `factory`.
fn world(
    factory: WorldFactory,
    name: &str,
    procs: u32,
    qcap: u32,
) -> Option<(Box<dyn RecoverableObject>, Layout)> {
    let mut b = LayoutBuilder::new();
    let obj = factory(name, &mut b, procs, qcap)?;
    Some((obj, b.finish()))
}

/// Maps the cycle's NVM under `dir` as `mode` memory: the data file alone
/// in the private-cache model, plus the shared overlay file in the
/// shared-cache model.
fn open_memory(
    dir: &Path,
    layout: Layout,
    mode: CacheMode,
    policy: CrashPolicy,
) -> io::Result<MappedMemory> {
    let data = MappedFile::open(&dir.join(DATA_FILE))?;
    Ok(match mode {
        CacheMode::PrivateCache => MappedMemory::private(layout, data),
        CacheMode::SharedCache => {
            let overlay = MappedFile::open(&dir.join(CACHE_FILE))?;
            MappedMemory::shared(layout, data, overlay, policy)
        }
    })
}

fn cache_to_str(mode: CacheMode) -> &'static str {
    match mode {
        CacheMode::PrivateCache => "private",
        CacheMode::SharedCache => "shared",
    }
}

fn cache_from_str(s: &str) -> Option<CacheMode> {
    match s {
        "private" => Some(CacheMode::PrivateCache),
        "shared" => Some(CacheMode::SharedCache),
        _ => None,
    }
}

fn policy_to_str(policy: CrashPolicy) -> String {
    match policy {
        CrashPolicy::DropAll => "drop".into(),
        CrashPolicy::PersistAll => "persist".into(),
        CrashPolicy::RandomSubset(seed) => format!("rand:{seed}"),
    }
}

fn policy_from_str(s: &str) -> Option<CrashPolicy> {
    match s {
        "drop" => Some(CrashPolicy::DropAll),
        "persist" => Some(CrashPolicy::PersistAll),
        _ => {
            let seed = s.strip_prefix("rand:")?.parse().ok()?;
            Some(CrashPolicy::RandomSubset(seed))
        }
    }
}

/// One SIGKILL/recover cycle's configuration.
#[derive(Clone, Debug)]
pub struct CrashCycleConfig {
    /// [`WorldFactory`] key of the object under test.
    pub object: String,
    /// Abstract kind — drives the workload and the specification the
    /// stitched history is checked against.
    pub kind: ObjectKind,
    /// Paper processes, one worker child each (at most 8: one barrier
    /// arrival word each in the log header).
    pub procs: u32,
    /// Operations each process attempts per cycle.
    pub ops_per_proc: usize,
    /// Queue capacity for [`ObjectKind::Queue`] worlds.
    pub queue_capacity: u32,
    /// Processes rendezvous every this many operations (the quiescent cut;
    /// `procs * barrier_every` must stay within [`MAX_CHECKED_OPS`]).
    pub barrier_every: usize,
    /// Persistence model the mapped memory follows. A shared-cache crash
    /// loses the one cache every process shares, so shared-cache cycles
    /// must kill every worker (`kill_subset == procs`).
    pub cache_mode: CacheMode,
    /// Write-through policy for shared-cache words (pre-decided per cell —
    /// SIGKILL runs no crash code, so the dirty-subset coin is flipped at
    /// write time; see [`nvm::write_through`]).
    pub policy: CrashPolicy,
    /// Seed for the kill-point randomization.
    pub seed: u64,
    /// The kill lands uniformly within this many microseconds of the first
    /// logged operation.
    pub kill_window_us: u64,
    /// Pinned to `true`: every paper process runs as its own OS process,
    /// the only topology [`run_cycle`] has. [`validate`](Self::validate)
    /// rejects `false`. The field remains only because existing callers
    /// assign it, and will be deleted once they no longer do.
    pub procs_as_processes: bool,
    /// How many workers the parent SIGKILLs per cycle (`1..=procs`;
    /// membership is randomized per cycle).
    pub kill_subset: u32,
    /// Maximum nested SIGKILLs the parent lands on each dead process's
    /// recoverer before the final re-entry runs to convergence.
    pub recovery_kills: u32,
    /// Directory holding the cycle's mapped files (recreated each cycle).
    pub dir: PathBuf,
}

impl CrashCycleConfig {
    /// Defaults for `kind`'s paper implementation: 3 worker processes, 400
    /// ops each, a barrier every 16 ops (48-op windows), private-cache
    /// memory, a 3 ms kill window, one victim per cycle, no recovery kills,
    /// files under the system temp directory. The queue capacity covers a
    /// full cycle of enqueues — the arena never recycles nodes, so callers
    /// shrinking it below `procs * ops_per_proc + 1` will exhaust a slab
    /// mid-cycle.
    pub fn new(kind: ObjectKind) -> CrashCycleConfig {
        CrashCycleConfig {
            object: kind_name(kind).to_string(),
            kind,
            procs: 3,
            ops_per_proc: 400,
            queue_capacity: 3 * 400 + 1,
            barrier_every: 16,
            cache_mode: CacheMode::PrivateCache,
            policy: CrashPolicy::DropAll,
            seed: 1,
            kill_window_us: 3_000,
            procs_as_processes: true,
            kill_subset: 1,
            recovery_kills: 0,
            dir: std::env::temp_dir().join(format!("process-crash-{}", std::process::id())),
        }
    }

    /// Checks that [`run_cycle`] can model this configuration.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, naming the offending fields, when
    /// `procs_as_processes` is `false`; `procs`, `ops_per_proc` or
    /// `barrier_every` is zero; there are more workers than the log header
    /// has barrier words for; `procs * barrier_every` overflows the
    /// checker's [`MAX_CHECKED_OPS`] window; `kill_subset` is outside
    /// `1..=procs`; or a shared-cache cycle kills fewer than all workers.
    pub fn validate(&self) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if !self.procs_as_processes {
            return invalid(
                "procs_as_processes must be true: one process per paper process is the only \
                 crash topology"
                    .into(),
            );
        }
        if self.procs == 0 || self.ops_per_proc == 0 || self.barrier_every == 0 {
            return invalid(format!(
                "procs, ops_per_proc and barrier_every must be positive, got {}, {} and {}",
                self.procs, self.ops_per_proc, self.barrier_every
            ));
        }
        let max_workers = MappedFile::USER_SLOTS - SLOT_ARRIVAL0;
        if self.procs as usize > max_workers {
            return invalid(format!(
                "at most {max_workers} worker processes (log-header barrier words), got {}",
                self.procs
            ));
        }
        let window = self.procs as usize * self.barrier_every;
        if window > MAX_CHECKED_OPS {
            return invalid(format!(
                "procs * barrier_every = {} * {} = {window} overflows the \
                 {MAX_CHECKED_OPS}-op checker window",
                self.procs, self.barrier_every
            ));
        }
        if self.kill_subset == 0 || self.kill_subset > self.procs {
            return invalid(format!(
                "kill_subset must be in 1..={}, got {}",
                self.procs, self.kill_subset
            ));
        }
        if self.cache_mode == CacheMode::SharedCache && self.kill_subset != self.procs {
            return invalid(format!(
                "shared-cache cycles must kill every worker (kill_subset = procs = {}), got \
                 kill_subset {}: a shared-cache crash loses the one cache all processes share",
                self.procs, self.kill_subset
            ));
        }
        Ok(())
    }
}

/// What one kill/recover cycle observed.
#[derive(Clone, Debug, Default)]
pub struct CycleReport {
    /// Whether any worker was actually SIGKILLed (workers may win the race
    /// and finish the workload first — a clean cycle, still checked).
    pub crashed: bool,
    /// SIGKILLs landed on workers: the subset members that had not already
    /// exited.
    pub worker_kills: usize,
    /// Operations surviving workers completed *after* the kill (zero when
    /// every worker died).
    pub survivor_ops: usize,
    /// Operations with a committed return record.
    pub ops_completed: usize,
    /// Operations the log proves were in flight at the kill.
    pub in_flight: usize,
    /// In-flight operations whose recovery reported a response.
    pub recovered_ok: usize,
    /// In-flight operations whose recovery reported `fail` (never
    /// linearized).
    pub recovered_failed: usize,
    /// In-flight operations recovery could not resolve within its step
    /// budget — zero for every detectable object.
    pub recovered_unresolved: usize,
    /// SIGKILLs landed on recoverers mid-recovery.
    pub recovery_kills: usize,
    /// Recovery re-entries: recoverer children spawned *after* a previous
    /// recoverer for the same operation was killed. Each landed recovery
    /// kill is followed by exactly one re-entry.
    pub recovery_reentries: usize,
    /// Whether the stitched history passed the windowed checker.
    pub check_ok: bool,
    /// The checker's rendering when it failed.
    pub violation: Option<String>,
    /// Microseconds from worker spawn to the kill (or clean exit).
    pub kill_latency_us: u64,
    /// Microseconds spent recovering (including nested recovery kills and
    /// re-entries), stitching and checking: exactly
    /// `recover_us + drain_us + check_us`.
    pub recovery_latency_us: u64,
    /// The part of `recovery_latency_us` spent in the recoverer children
    /// and the mid-cycle probe, while the survivors are parked.
    pub recover_us: u64,
    /// The part spent draining the survivors through the barrier until
    /// every worker has exited.
    pub drain_us: u64,
    /// The part spent parsing the log, stitching the history, running the
    /// end-of-run probe and the windowed check.
    pub check_us: u64,
}

impl CycleReport {
    /// This cycle's contribution to the shared [`RunStats`] counters, so
    /// process-crash results flow through the same stats plumbing as every
    /// other runner: one execution, resolved ops, one crash per landed
    /// kill, and the recovery verdict split including
    /// [`recovered_unresolved`](CycleReport::recovered_unresolved).
    pub fn stats(&self) -> RunStats {
        RunStats {
            executions: 1,
            resolved_ops: (self.ops_completed + self.recovered_ok + self.recovered_failed) as u64,
            crashes: (self.worker_kills + self.recovery_kills) as u64,
            recovered_ok: self.recovered_ok as u64,
            recovered_failed: self.recovered_failed as u64,
            recovered_unresolved: self.recovered_unresolved as u64,
            ..RunStats::default()
        }
    }
}

/// Worker-mode entry point. **Must be called at the top of `main` in every
/// binary that hosts crash cycles** — [`run_cycle`] re-executes
/// `current_exe()` and relies on this call to divert the child into the
/// traffic loop or the recoverer (it never returns in either mode). A no-op
/// otherwise.
pub fn maybe_run_worker(factory: WorldFactory) {
    if std::env::var_os(ENV_WORKER).is_none() {
        return;
    }
    if std::env::var_os(ENV_RECOVER).is_some() {
        run_recoverer(factory);
    }
    run_fabric_worker(factory);
}

fn env(k: &str) -> String {
    std::env::var(k).unwrap_or_else(|_| panic!("crash worker: missing {k}"))
}

/// The cycle parameters every worker mode decodes from the environment.
struct WorkerEnv {
    dir: PathBuf,
    object: String,
    kind: ObjectKind,
    procs: u32,
    ops: usize,
    qcap: u32,
    barrier_every: usize,
    mode: CacheMode,
    policy: CrashPolicy,
    base: usize,
}

impl WorkerEnv {
    fn load() -> WorkerEnv {
        WorkerEnv {
            dir: PathBuf::from(env(ENV_DIR)),
            object: env(ENV_OBJECT),
            kind: kind_from_name(&env(ENV_KIND)).expect("crash worker: bad kind"),
            procs: env(ENV_PROCS).parse().expect("crash worker: bad procs"),
            ops: env(ENV_OPS).parse().expect("crash worker: bad ops"),
            qcap: env(ENV_QCAP).parse().expect("crash worker: bad qcap"),
            barrier_every: env(ENV_BARRIER).parse().expect("crash worker: bad barrier"),
            mode: cache_from_str(&env(ENV_CACHE)).expect("crash worker: bad cache mode"),
            policy: policy_from_str(&env(ENV_POLICY)).expect("crash worker: bad policy"),
            base: env(ENV_BASE).parse().expect("crash worker: bad base"),
        }
    }

    /// The object, its memory over the cycle's files, and the log.
    fn open(
        &self,
        factory: WorldFactory,
    ) -> (Box<dyn RecoverableObject>, MappedMemory, MappedFile) {
        let (obj, layout) = world(factory, &self.object, self.procs, self.qcap)
            .unwrap_or_else(|| panic!("crash worker: unknown object {}", self.object));
        let mem = open_memory(&self.dir, layout, self.mode, self.policy)
            .expect("crash worker: map the NVM files");
        let log = MappedFile::open(&self.dir.join(LOG_FILE)).expect("crash worker: open log file");
        assert_eq!(
            log.words(),
            self.procs as usize * self.ops * 2 * RECORD_WORDS,
            "crash worker: log file does not match the workload"
        );
        (obj, mem, log)
    }
}

/// A panicking worker or recoverer must fail loudly: siblings would
/// otherwise hang at the barrier until the parent's kill, turning a harness
/// bug into a silently-accepted "crash".
fn install_exit_on_panic() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(101);
    }));
}

/// Worker: ONE paper process in its own address space, sharing the mapped
/// files with its siblings. Each operation runs announce → invoke record →
/// machine → return record; the announcement runs FIRST because recovery
/// must only ever read a current announcement, so an operation enters the
/// log only once fully prepared (a kill mid-prepare leaves no record — and
/// no linearized effect). The rendezvous runs over the log header (see
/// [`barrier_wait`]), so a dead sibling cannot wedge the survivors — the
/// parent excludes it from the arrival quorum.
fn run_fabric_worker(factory: WorldFactory) -> ! {
    let e = WorkerEnv::load();
    let me: u32 = env(ENV_PID).parse().expect("crash worker: bad pid");
    assert!(
        me < e.procs,
        "crash worker: pid {me} outside 0..{}",
        e.procs
    );
    let (obj, mem, log) = e.open(factory);
    install_exit_on_panic();
    let pid = Pid::new(me);
    let slot0 = me as usize * e.ops * 2 * RECORD_WORDS;
    // If the parent dies (or stalls beyond any plausible recovery pause),
    // abandon the wait instead of leaking an orphan that polls forever.
    let abandon = Instant::now() + Duration::from_secs(120);
    let stall_requested = || log.user(SLOT_STALL).load(Ordering::SeqCst) >> me & 1 == 1;
    let stall = || {
        let give_up = Instant::now() + STALL_LIMIT;
        while stall_requested() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(50));
        }
    };
    for i in 0..e.ops {
        if i > 0
            && i % e.barrier_every == 0
            && !barrier_wait(&log, me, (i / e.barrier_every) as u64, abandon)
        {
            std::process::exit(EXIT_ABANDONED);
        }
        // When the parent raises this worker's stall bit, pause either
        // before the machine runs (the kill interrupts an
        // announced-but-unlinearized operation) or after it (the kill
        // interrupts a fully linearized operation whose return never
        // committed) — alternating by op so recovery faces both fates.
        let op = mixed_op(e.kind, pid, e.base + i);
        obj.prepare(&mem, pid, &op);
        append_record(
            &log,
            slot0 + 2 * i * RECORD_WORDS,
            TAG_INVOKE,
            op_key(&op),
            0,
        );
        let pre_machine = (e.base + i).is_multiple_of(2);
        if pre_machine && stall_requested() {
            stall();
        }
        let mut m = obj.invoke(pid, &op);
        let resp = run_to_completion(&mut *m, &mem, WORKER_STEP_LIMIT)
            .unwrap_or_else(|err| panic!("crash worker: {pid} op {op} hit {err:?}"));
        if !pre_machine && stall_requested() {
            stall();
        }
        append_record(
            &log,
            slot0 + (2 * i + 1) * RECORD_WORDS,
            TAG_RETURN,
            op_key(&op),
            resp,
        );
    }
    std::process::exit(0);
}

/// Polls `ready` until it holds (`true`) or `deadline` passes (`false`).
/// `ready` is polled first, so a condition that already holds costs no
/// wait; after that the polls are [`SPIN_YIELDS`] `yield_now`s apart, then
/// `nap` apart.
fn wait_until(deadline: Instant, nap: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let mut yields = 0;
    loop {
        if ready() {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        if yields < SPIN_YIELDS {
            yields += 1;
            std::thread::yield_now();
        } else {
            std::thread::sleep(nap);
        }
    }
}

/// Worker `me`'s side of one quiescent cut: store `round` in its arrival
/// word, then wait until the parent's release word reaches it. `false` if
/// `abandon` passes first (the parent is gone).
fn barrier_wait(log: &MappedFile, me: u32, round: u64, abandon: Instant) -> bool {
    log.user(SLOT_ARRIVAL0 + me as usize)
        .store(round, Ordering::SeqCst);
    wait_until(abandon, WORKER_NAP, || {
        log.user(SLOT_RELEASE).load(Ordering::SeqCst) >= round
    })
}

/// Recoverer: resolves the open invocation of one dead process, in its own
/// address space so the parent can SIGKILL *recovery itself*. Reads the
/// dead pid's log region; if the invocation is already closed (a previous
/// recoverer converged and committed its verdict before dying) this
/// re-entry is a no-op — recovery is idempotent. Otherwise it arms the
/// [`SLOT_ARMED`] flag, drives [`RecoverableObject::recover`] over the real
/// mapped memory (optionally pacing its first steps so a planned kill can
/// land mid-mutation), and commits the verdict as a [`TAG_RECOVERY`]
/// record sequenced like any other.
fn run_recoverer(factory: WorldFactory) -> ! {
    let e = WorkerEnv::load();
    let me: u32 = env(ENV_RECOVER).parse().expect("recoverer: bad pid");
    let pace_us: u64 = std::env::var(ENV_PACE)
        .ok()
        .map(|v| v.parse().expect("recoverer: bad pace"))
        .unwrap_or(0);
    install_exit_on_panic();
    let (obj, mem, log) = e.open(factory);
    let (_, open) = parse_region(&log, me, e.ops)
        .unwrap_or_else(|err| panic!("recoverer: corrupt log region for p{me}: {err}"));
    let Some(flight) = open else {
        // Nothing in flight (or a predecessor already committed the
        // verdict): the idempotent re-entry converges by doing nothing.
        std::process::exit(0);
    };
    let mut d = Driver::without_history(e.procs);
    d.mark_crashed(me as usize, flight.op);
    let retry = RetryPolicy {
        retry_on_fail: false,
        max_retries: 0,
        reset_per_op: false,
    };
    log.user(SLOT_ARMED).store(1, Ordering::SeqCst);
    for step in 0..RECOVERY_STEP_LIMIT {
        if pace_us > 0 && step < PACED_STEPS {
            std::thread::sleep(Duration::from_micros(pace_us));
        }
        if let StepOutcome::Recovered { verdict, .. } = d.step(&*obj, &mem, me as usize, &retry) {
            append_record(&log, flight.at, TAG_RECOVERY, op_key(&flight.op), verdict);
            std::process::exit(0);
        }
    }
    std::process::exit(EXIT_UNRESOLVED);
}

/// Commits one log record: payload words first, the sequence number last —
/// a kill between the stores leaves the record invisible (`seq == 0`).
fn append_record(log: &MappedFile, at: usize, tag: Word, key: Word, resp: Word) {
    let seq = log.user(SLOT_SEQ).fetch_add(1, Ordering::SeqCst) + 1;
    log.word(at + 1).store(tag, Ordering::SeqCst);
    log.word(at + 2).store(key, Ordering::SeqCst);
    log.word(at + 3).store(resp, Ordering::SeqCst);
    log.word(at).store(seq, Ordering::SeqCst);
}

struct LogRecord {
    seq: u64,
    pid: u32,
    tag: Word,
    key: Word,
    resp: Word,
}

/// An invocation the log proves open: the operation, and the word offset
/// where its closing record (return or recovery verdict) goes.
struct InFlight {
    op: OpSpec,
    at: usize,
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads back one process's committed records in slot order, validating
/// that every invoke is closed by a return or recovery verdict before the
/// next invoke; returns the records and the invocation left open, if any.
fn parse_region(
    log: &MappedFile,
    t: u32,
    ops: usize,
) -> io::Result<(Vec<LogRecord>, Option<InFlight>)> {
    let base = t as usize * ops * 2 * RECORD_WORDS;
    let mut recs = Vec::new();
    let mut open: Option<(Word, OpSpec)> = None;
    let mut committed = 0usize;
    for j in 0..ops * 2 {
        let at = base + j * RECORD_WORDS;
        let seq = log.word(at).load(Ordering::SeqCst);
        if seq == 0 {
            break; // torn or never written; no later slot is committed
        }
        let tag = log.word(at + 1).load(Ordering::SeqCst);
        let key = log.word(at + 2).load(Ordering::SeqCst);
        let resp = log.word(at + 3).load(Ordering::SeqCst);
        match tag {
            TAG_INVOKE => {
                if open.is_some() {
                    return Err(corrupt(format!("p{t}: two invokes without a return")));
                }
                let op = op_from_key(key)
                    .ok_or_else(|| corrupt(format!("p{t}: bad op key {key:#x}")))?;
                open = Some((key, op));
            }
            TAG_RETURN | TAG_RECOVERY => match open.take() {
                Some((k, _)) if k == key => {}
                _ => return Err(corrupt(format!("p{t}: close does not match invoke"))),
            },
            other => return Err(corrupt(format!("p{t}: bad record tag {other}"))),
        }
        recs.push(LogRecord {
            seq,
            pid: t,
            tag,
            key,
            resp,
        });
        committed += 1;
    }
    let open = open.map(|(_, op)| InFlight {
        op,
        at: base + committed * RECORD_WORDS,
    });
    Ok((recs, open))
}

/// Reads back every committed record, per-process in slot order; returns
/// the records (sequence-sorted) and, per process, the invocation left
/// open by a kill.
fn parse_log(
    log: &MappedFile,
    procs: u32,
    ops: usize,
) -> io::Result<(Vec<LogRecord>, Vec<Option<InFlight>>)> {
    let mut recs = Vec::new();
    let mut in_flight = Vec::with_capacity(procs as usize);
    for t in 0..procs {
        let (mut r, open) = parse_region(log, t, ops)?;
        recs.append(&mut r);
        in_flight.push(open);
    }
    recs.sort_by_key(|r| r.seq);
    Ok((recs, in_flight))
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Whether `pid`'s log region currently shows an open invoke (an odd
/// number of committed records — invoke/return strictly alternate until a
/// recovery record exists). `cursor` caches the committed-record count so
/// repeated polling is O(new records), not O(region).
fn region_mid_op(log: &MappedFile, pid: usize, ops: usize, cursor: &mut usize) -> bool {
    let base = pid * ops * 2 * RECORD_WORDS;
    while *cursor < ops * 2 {
        let at = base + *cursor * RECORD_WORDS;
        if log.word(at).load(Ordering::SeqCst) == 0 {
            break;
        }
        *cursor += 1;
    }
    *cursor % 2 == 1
}

/// The parent side of one cycle's child management.
struct Children {
    procs: Vec<Child>,
    exited: Vec<Option<ExitStatus>>,
    killed: Vec<bool>,
}

impl Children {
    fn reap(&mut self) -> io::Result<()> {
        for (c, slot) in self.procs.iter_mut().zip(self.exited.iter_mut()) {
            if slot.is_none() {
                *slot = c.try_wait()?;
            }
        }
        Ok(())
    }

    fn all_exited(&self) -> bool {
        self.exited.iter().all(Option::is_some)
    }

    fn kill(&mut self, i: usize) -> io::Result<bool> {
        if self.exited[i].is_some() {
            return Ok(false); // won the race: finished before the kill
        }
        self.procs[i].kill()?;
        self.exited[i] = Some(self.procs[i].wait()?);
        self.killed[i] = true;
        Ok(true)
    }

    fn kill_all(&mut self) {
        for i in 0..self.procs.len() {
            let _ = self.kill(i);
        }
    }
}

/// Releases the next barrier round iff every live (not-killed) worker has
/// arrived at it. Exited workers keep their final arrival word,
/// so they never gate a release; killed workers are excluded outright —
/// that exclusion is what lets the survivors re-barrier across a dead
/// peer. Returns whether it released.
fn pump_barrier(log: &MappedFile, killed: &[bool]) -> bool {
    let next = log.user(SLOT_RELEASE).load(Ordering::SeqCst) + 1;
    let live = (0..killed.len()).filter(|&p| !killed[p]);
    let mut any = false;
    for p in live {
        any = true;
        if log.user(SLOT_ARRIVAL0 + p).load(Ordering::SeqCst) < next {
            return false;
        }
    }
    if any {
        log.user(SLOT_RELEASE).store(next, Ordering::SeqCst);
    }
    any
}

/// One solo `Read` by `pid` over a fresh mapping of the cycle's NVM (file
/// plus shared overlay) — the lie probe that forces recovered state into
/// the checked history. `None` if the read does not finish within budget.
fn probe_read(cfg: &CrashCycleConfig, factory: WorldFactory, pid: u32) -> io::Result<Option<Word>> {
    let (obj, layout) =
        world(factory, &cfg.object, cfg.procs, cfg.queue_capacity).expect("factory resolved");
    let mem = open_memory(&cfg.dir, layout, cfg.cache_mode, cfg.policy)?;
    let mut d = Driver::without_history(cfg.procs);
    Ok(d.try_run_solo(&*obj, &mem, pid as usize, OpSpec::Read, RECOVERY_STEP_LIMIT))
}

/// Runs one full kill/recover cycle: spawn one worker per paper process,
/// SIGKILL a randomized subset of them at a randomized point inside the
/// kill window, run each dead process's recovery as a nested-killable
/// recoverer child, then check the stitched history.
///
/// `cycle` individualizes the kill point and the workload offset, so a
/// soak's cycles explore different crash sites.
///
/// # Errors
///
/// An invalid configuration (see [`CrashCycleConfig::validate`]), an
/// unknown object, I/O failures, a worker that exits nonzero (a panic in
/// the child is a harness bug, not a verdict), and log corruption all
/// surface as `Err`; *semantic* failures — unresolved operations, check
/// violations — are reported in the [`CycleReport`] so callers can count
/// them.
pub fn run_cycle(
    cfg: &CrashCycleConfig,
    factory: WorldFactory,
    cycle: u64,
) -> io::Result<CycleReport> {
    cfg.validate()?;
    std::fs::create_dir_all(&cfg.dir)?;

    // Size the files from the factory's layout (and fail fast on an
    // unknown object name — the child would otherwise die reporting it).
    let (_, layout) =
        world(factory, &cfg.object, cfg.procs, cfg.queue_capacity).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown object {:?}", cfg.object),
            )
        })?;
    let data = MappedFile::create(&cfg.dir.join(DATA_FILE), layout.total_words())?;
    let log = MappedFile::create(
        &cfg.dir.join(LOG_FILE),
        cfg.procs as usize * cfg.ops_per_proc * 2 * RECORD_WORDS,
    )?;
    let cache = match cfg.cache_mode {
        CacheMode::PrivateCache => None,
        CacheMode::SharedCache => Some(MappedFile::create(
            &cfg.dir.join(CACHE_FILE),
            MappedMemory::overlay_words(&layout),
        )?),
    };
    // Declares one landed kill: the shared cache is lost (releasing its
    // lock word too, should the victim have died holding it), then the
    // crash ordinal moves on so later memories draw fresh write-through
    // coins.
    let declare_crash = || {
        if let Some(cache) = &cache {
            cache.wipe();
        }
        data.bump_crash_count();
    };

    let exe = std::env::current_exe()?;
    let spawn = |extra: &[(&str, String)]| -> io::Result<Child> {
        let mut c = Command::new(&exe);
        c.env(ENV_WORKER, "1")
            .env(ENV_DIR, &cfg.dir)
            .env(ENV_OBJECT, &cfg.object)
            .env(ENV_KIND, kind_name(cfg.kind))
            .env(ENV_PROCS, cfg.procs.to_string())
            .env(ENV_OPS, cfg.ops_per_proc.to_string())
            .env(ENV_QCAP, cfg.queue_capacity.to_string())
            .env(ENV_BARRIER, cfg.barrier_every.to_string())
            .env(ENV_CACHE, cache_to_str(cfg.cache_mode))
            .env(ENV_POLICY, policy_to_str(cfg.policy))
            .env(
                ENV_BASE,
                (cycle as usize).wrapping_mul(cfg.ops_per_proc).to_string(),
            )
            .env_remove(ENV_PID)
            .env_remove(ENV_RECOVER)
            .env_remove(ENV_PACE)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        for (k, v) in extra {
            c.env(k, v);
        }
        c.spawn()
    };

    let started = Instant::now();
    let mut kids = {
        let procs = (0..cfg.procs)
            .map(|p| spawn(&[(ENV_PID, p.to_string())]))
            .collect::<io::Result<Vec<Child>>>()?;
        let n = procs.len();
        Children {
            procs,
            exited: vec![None; n],
            killed: vec![false; n],
        }
    };

    let mut rng = cfg.seed ^ cycle.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let delay = Duration::from_micros(if cfg.kill_window_us == 0 {
        0
    } else {
        xorshift(&mut rng) % cfg.kill_window_us
    });

    let mut report = CycleReport::default();

    // Phase 1: wait for the first logged operation (or a clean finish),
    // pumping the barrier the whole time.
    let arm_deadline = Instant::now() + Duration::from_secs(60);
    while log.user(SLOT_SEQ).load(Ordering::SeqCst) == 0 {
        kids.reap()?;
        if kids.all_exited() {
            break;
        }
        pump_barrier(&log, &kids.killed);
        if Instant::now() > arm_deadline {
            kids.kill_all();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "crash worker produced no traffic within 60s",
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    // Phase 2: let the traffic run for the randomized delay, then kill.
    let armed = Instant::now();
    loop {
        kids.reap()?;
        if kids.all_exited() {
            break; // clean finish: the workers won the race
        }
        pump_barrier(&log, &kids.killed);
        let ran = armed.elapsed();
        if ran >= delay {
            // A randomized subset of kill_subset distinct workers dies
            // (partial Fisher–Yates over the pid space). A SIGKILL loses
            // the race against microsecond-scale operations — workers
            // spend most wall time parked at the barrier, where a kill
            // lands between operations and gives recovery nothing to
            // recover. So first raise the victims' stall bits and keep
            // pumping the barrier until every victim is either finished or
            // stably mid-operation (paused at its stall point, the way a
            // preempted process would be); the un-stalled survivors run
            // ahead and park at their next barrier. Then freeze — no
            // further releases until recovery is done, so every victim's
            // open operation overlaps at most this one window of survivor
            // traffic — and land the kills.
            let mut pids: Vec<usize> = (0..cfg.procs as usize).collect();
            for v in 0..cfg.kill_subset as usize {
                let j = v + (xorshift(&mut rng) as usize) % (pids.len() - v);
                pids.swap(v, j);
            }
            let victims = &pids[..cfg.kill_subset as usize];
            let mut mask = 0u64;
            for &v in victims {
                mask |= 1 << v;
            }
            log.user(SLOT_STALL).store(mask, Ordering::SeqCst);
            let mut probes = vec![(0usize, Instant::now()); cfg.procs as usize];
            let deadline = Instant::now() + Duration::from_millis(50);
            loop {
                kids.reap()?;
                pump_barrier(&log, &kids.killed);
                let mut ready = true;
                for &v in victims {
                    if kids.exited[v].is_some() {
                        continue;
                    }
                    let (cursor, since) = &mut probes[v];
                    let before = *cursor;
                    let mid = region_mid_op(&log, v, cfg.ops_per_proc, cursor);
                    if *cursor != before {
                        *since = Instant::now();
                    }
                    // Stable mid-op: an open invoke whose region has not
                    // advanced for a few polls — the worker is sitting at
                    // its stall point, not racing through.
                    if !mid || since.elapsed() < Duration::from_micros(200) {
                        ready = false;
                    }
                }
                if ready || Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            for &victim in victims {
                if kids.kill(victim)? {
                    report.worker_kills += 1;
                }
            }
            // Declared only once every victim is dead, so no victim can
            // refill the shared cache after its wipe.
            for _ in 0..report.worker_kills {
                declare_crash();
            }
            log.user(SLOT_STALL).store(0, Ordering::SeqCst);
            break;
        }
        std::thread::sleep((delay - ran).min(Duration::from_micros(200)));
    }
    let kill_seq = log.user(SLOT_SEQ).load(Ordering::SeqCst);
    report.kill_latency_us = started.elapsed().as_micros() as u64;
    report.crashed = report.worker_kills > 0;
    let recovering = Instant::now();

    // Recovery, child-per-process, with nested mid-recovery kills. Runs
    // while the survivors are parked: barrier releases are withheld here,
    // so each dead operation's interval overlaps at most one window of
    // survivor traffic before its verdict record lands.
    let dead_pids: Vec<u32> = (0..cfg.procs)
        .filter(|&p| kids.killed[p as usize])
        .collect();
    for &pid in &dead_pids {
        let (_, open) = parse_region(&log, pid, cfg.ops_per_proc)?;
        if open.is_none() {
            continue; // died between operations: nothing to recover
        }
        let mut landed = 0u32;
        loop {
            let plan_kill = landed < cfg.recovery_kills;
            log.user(SLOT_ARMED).store(0, Ordering::SeqCst);
            let mut extra = vec![(ENV_RECOVER, pid.to_string())];
            if plan_kill {
                extra.push((ENV_PACE, RECOVERY_PACE_US.to_string()));
            }
            let mut rc = spawn(&extra)?;
            let status = if plan_kill {
                // Wait for the recoverer to arm (recovery underway), then
                // kill it a randomized beat later — unless it converges
                // first.
                let deadline = Instant::now() + Duration::from_secs(30);
                let early = loop {
                    if let Some(st) = rc.try_wait()? {
                        break Some(st);
                    }
                    if log.user(SLOT_ARMED).load(Ordering::SeqCst) != 0 {
                        break None;
                    }
                    if Instant::now() > deadline {
                        let _ = rc.kill();
                        let _ = rc.wait();
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("recoverer for p{pid} never armed"),
                        ));
                    }
                    std::thread::sleep(Duration::from_micros(30));
                };
                match early {
                    Some(st) => st,
                    None => {
                        let beat = xorshift(&mut rng) % RECOVERY_KILL_WINDOW_US;
                        std::thread::sleep(Duration::from_micros(beat));
                        match rc.try_wait()? {
                            Some(st) => st,
                            None => {
                                rc.kill()?;
                                rc.wait()?;
                                declare_crash();
                                landed += 1;
                                report.recovery_kills += 1;
                                report.recovery_reentries += 1;
                                continue; // nested re-entry
                            }
                        }
                    }
                }
            } else {
                rc.wait()?
            };
            match status.code() {
                Some(0) => break,
                Some(EXIT_UNRESOLVED) => {
                    report.recovered_unresolved += 1;
                    break;
                }
                code => {
                    return Err(io::Error::other(format!(
                        "recoverer for p{pid} failed: {code:?}"
                    )));
                }
            }
        }
    }

    // Mid-cycle probe: one solo read, committed to a recovered process's
    // log region *while the survivors are still parked*. The end-of-run
    // probe can miss a lying recovery — by the time it reads, resumed
    // survivors have usually overwritten the disclaimed value — but
    // nothing runs between the verdict records and this read, so a
    // disclaimed-but-linearized write is still sitting in NVM for it to
    // observe. Queues have no non-mutating operation and keep their
    // recovery-verdict checks.
    if cfg.kind != ObjectKind::Queue {
        let prober = dead_pids.iter().copied().find_map(|p| {
            let (recs, open) = parse_region(&log, p, cfg.ops_per_proc).ok()?;
            (open.is_none() && recs.len() + 2 <= cfg.ops_per_proc * 2).then_some((p, recs.len()))
        });
        if let Some((pid, committed)) = prober {
            if let Some(v) = probe_read(cfg, factory, pid)? {
                let at =
                    pid as usize * cfg.ops_per_proc * 2 * RECORD_WORDS + committed * RECORD_WORDS;
                append_record(&log, at, TAG_INVOKE, op_key(&OpSpec::Read), 0);
                append_record(
                    &log,
                    at + RECORD_WORDS,
                    TAG_RETURN,
                    op_key(&OpSpec::Read),
                    v,
                );
            }
        }
    }

    // Resume the survivors and wait everything out. No kill is timed
    // against this traffic, so each round is released as soon as its last
    // survivor arrives. Each wait covers one round (or the final exits),
    // so the yield budget restarts at every release.
    let draining = Instant::now();
    let drain_deadline = draining + Duration::from_secs(120);
    while !kids.all_exited() {
        let mut reaped = Ok(());
        let progressed = wait_until(drain_deadline, DRAIN_NAP, || {
            reaped = kids.reap();
            reaped.is_err() || pump_barrier(&log, &kids.killed) || kids.all_exited()
        });
        reaped?;
        if !progressed {
            kids.kill_all();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "surviving workers did not finish within 120s",
            ));
        }
    }
    for (i, st) in kids.exited.iter().enumerate() {
        if kids.killed[i] {
            continue;
        }
        let st = st.expect("reaped above");
        if st.code() != Some(0) {
            return Err(io::Error::other(format!(
                "crash worker {i} exited with {st}"
            )));
        }
    }

    let checking = Instant::now();
    let (recs, in_flight) = parse_log(&log, cfg.procs, cfg.ops_per_proc)?;
    // The mapped log is released once parsed, and the parsed records once
    // the history holds them, so the cycle's peak resident set never
    // stacks the log, its records, the history and the checked records.
    drop(log);
    if !report.crashed {
        let stray = in_flight.iter().flatten().count();
        if stray != 0 {
            return Err(corrupt(format!(
                "clean worker exit left {stray} unmatched invoke records"
            )));
        }
    }

    let mut h = History::new();
    let mut crash_marked = !report.crashed;
    for r in &recs {
        if !crash_marked && r.seq > kill_seq {
            h.push(Event::Crash);
            crash_marked = true;
        }
        let pid = Pid::new(r.pid);
        match r.tag {
            TAG_INVOKE => h.push(Event::Invoke {
                pid,
                op: op_from_key(r.key).expect("validated by parse_log"),
            }),
            TAG_RETURN => {
                if r.seq > kill_seq && !kids.killed[r.pid as usize] {
                    report.survivor_ops += 1;
                }
                h.push(Event::Return { pid, resp: r.resp });
            }
            _ => h.push(Event::RecoveryReturn {
                pid,
                verdict: r.resp,
            }),
        }
    }
    if !crash_marked {
        h.push(Event::Crash);
    }
    report.ops_completed = recs.iter().filter(|r| r.tag == TAG_RETURN).count();
    let recovery_recs = recs.iter().filter(|r| r.tag == TAG_RECOVERY);
    report.recovered_ok = recovery_recs
        .clone()
        .filter(|r| r.resp != RESP_FAIL)
        .count();
    report.recovered_failed = recovery_recs.filter(|r| r.resp == RESP_FAIL).count();
    drop(recs);
    let still_open = in_flight.iter().flatten().count();
    report.in_flight = report.recovered_ok + report.recovered_failed + still_open;

    // End-of-run probe, after the drain: the verdicts themselves already
    // sit in the log as TAG_RECOVERY records.
    if report.crashed && cfg.kind != ObjectKind::Queue && in_flight[0].is_none() {
        if let Some(v) = probe_read(cfg, factory, 0)? {
            h.push(Event::Invoke {
                pid: Pid::new(0),
                op: OpSpec::Read,
            });
            h.push(Event::Return {
                pid: Pid::new(0),
                resp: v,
            });
        }
    }

    let records = h.to_records();
    let check = check_records_windowed(cfg.kind, &records);
    // Phase boundaries in microseconds since `recovering`, so the three
    // phases sum to the whole exactly.
    let since = |t: Instant| (t - recovering).as_micros() as u64;
    let (drained, checked) = (since(checking), since(Instant::now()));
    report.recover_us = since(draining);
    report.drain_us = drained - report.recover_us;
    report.check_us = checked - drained;
    report.recovery_latency_us = checked;
    report.check_ok = check.is_ok();
    report.violation = check.err().map(|v| v.to_string());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            ObjectKind::Register,
            ObjectKind::Cas,
            ObjectKind::MaxRegister,
            ObjectKind::Counter,
            ObjectKind::Faa,
            ObjectKind::Swap,
            ObjectKind::Tas,
            ObjectKind::Queue,
        ] {
            assert_eq!(kind_from_name(kind_name(kind)), Some(kind));
            let mut b = LayoutBuilder::new();
            let obj = default_factory(kind_name(kind), &mut b, 2, 8).expect("default factory");
            assert_eq!(obj.kind(), kind);
        }
        let mut b = LayoutBuilder::new();
        assert!(default_factory("no-such-object", &mut b, 2, 8).is_none());
    }

    #[test]
    fn cache_and_policy_env_codecs_roundtrip() {
        for mode in [CacheMode::PrivateCache, CacheMode::SharedCache] {
            assert_eq!(cache_from_str(cache_to_str(mode)), Some(mode));
        }
        for policy in [
            CrashPolicy::DropAll,
            CrashPolicy::PersistAll,
            CrashPolicy::RandomSubset(0xABCD),
        ] {
            assert_eq!(policy_from_str(&policy_to_str(policy)), Some(policy));
        }
        assert_eq!(cache_from_str("write-back"), None);
        assert_eq!(policy_from_str("rand:x"), None);
    }

    fn scratch_log(procs: u32, ops: usize, tag: &str) -> (std::path::PathBuf, MappedFile) {
        let path =
            std::env::temp_dir().join(format!("pc-log-test-{}-{tag}.nvm", std::process::id()));
        let log = MappedFile::create(&path, procs as usize * ops * 2 * RECORD_WORDS).unwrap();
        (path, log)
    }

    #[test]
    fn log_records_roundtrip_and_detect_in_flight() {
        let (path, log) = scratch_log(2, 4, "roundtrip");
        // p0: one completed write, one in-flight read (no return record).
        append_record(&log, 0, TAG_INVOKE, op_key(&OpSpec::Write(3)), 0);
        append_record(&log, RECORD_WORDS, TAG_RETURN, op_key(&OpSpec::Write(3)), 1);
        append_record(&log, 2 * RECORD_WORDS, TAG_INVOKE, op_key(&OpSpec::Read), 0);
        // p1: a torn record (seq still 0) is invisible.
        let p1 = 4 * 2 * RECORD_WORDS;
        log.word(p1 + 1).store(TAG_INVOKE, Ordering::SeqCst);
        log.word(p1 + 2)
            .store(op_key(&OpSpec::Read), Ordering::SeqCst);

        let (recs, in_flight) = parse_log(&log, 2, 4).unwrap();
        assert_eq!(recs.len(), 3);
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        let open = in_flight[0].as_ref().expect("p0 read is in flight");
        assert_eq!(open.op, OpSpec::Read);
        // Its closing record goes in the very next slot of p0's region.
        assert_eq!(open.at, 3 * RECORD_WORDS);
        assert!(in_flight[1].is_none());
        drop(log);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn recovery_record_closes_the_invocation() {
        let (path, log) = scratch_log(1, 4, "recovery");
        append_record(&log, 0, TAG_INVOKE, op_key(&OpSpec::Write(9)), 0);
        let (_, open) = parse_log(&log, 1, 4)
            .map(|(r, mut f)| (r, f.remove(0)))
            .unwrap();
        let open = open.expect("write is in flight");
        // A recoverer commits its verdict into the open slot; re-parsing
        // shows the invocation closed — the idempotent re-entry is a no-op.
        append_record(&log, open.at, TAG_RECOVERY, op_key(&OpSpec::Write(9)), 1);
        let (recs, in_flight) = parse_log(&log, 1, 4).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].tag, TAG_RECOVERY);
        assert!(in_flight[0].is_none());
        drop(log);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn log_parse_rejects_corruption() {
        let (path, log) = scratch_log(1, 4, "corrupt");
        append_record(&log, 0, TAG_INVOKE, op_key(&OpSpec::Read), 0);
        append_record(&log, RECORD_WORDS, TAG_INVOKE, op_key(&OpSpec::Read), 0);
        assert!(parse_log(&log, 1, 4).is_err());
        drop(log);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn wait_until_polls_a_condition_that_holds_once() {
        let mut polls = 0;
        // The deadline has already passed: only the first poll can succeed.
        assert!(wait_until(Instant::now(), WORKER_NAP, || {
            polls += 1;
            true
        }));
        assert_eq!(polls, 1);
    }

    #[test]
    fn wait_until_keeps_polling_past_its_yields_until_the_condition_holds() {
        let mut polls = 0;
        let deadline = Instant::now() + Duration::from_secs(60);
        assert!(wait_until(deadline, WORKER_NAP, || {
            polls += 1;
            polls == SPIN_YIELDS + 3
        }));
        assert_eq!(polls, SPIN_YIELDS + 3);
    }

    #[test]
    fn wait_until_gives_up_at_its_deadline() {
        let start = Instant::now();
        let patience = Duration::from_millis(20);
        assert!(!wait_until(start + patience, WORKER_NAP, || false));
        assert!(start.elapsed() >= patience);
    }

    #[test]
    fn barrier_rounds_release_live_arrivals_and_abandon_without_a_parent() {
        let (path, log) = scratch_log(2, 4, "barrier");
        let far = Instant::now() + Duration::from_secs(60);
        // p1 arrives at round 1 alone: no release while p0 is live, and
        // the release once p0 is dead.
        log.user(SLOT_ARRIVAL0 + 1).store(1, Ordering::SeqCst);
        assert!(!pump_barrier(&log, &[false, false]));
        assert!(pump_barrier(&log, &[true, false]));
        assert_eq!(log.user(SLOT_RELEASE).load(Ordering::SeqCst), 1);
        // Released rounds pass at once and publish the arrival.
        assert!(barrier_wait(&log, 1, 1, far));
        assert_eq!(log.user(SLOT_ARRIVAL0 + 1).load(Ordering::SeqCst), 1);
        // A round nobody releases ends at the abandon deadline, which is
        // the worker's cue to exit with EXIT_ABANDONED.
        let abandon = Instant::now() + Duration::from_millis(20);
        assert!(!barrier_wait(&log, 1, 2, abandon));
        assert_eq!(log.user(SLOT_ARRIVAL0 + 1).load(Ordering::SeqCst), 2);
        // With every worker dead there is no quorum to release.
        assert!(!pump_barrier(&log, &[true, true]));
        drop(log);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn cycle_report_feeds_run_stats() {
        let report = CycleReport {
            crashed: true,
            worker_kills: 2,
            ops_completed: 40,
            in_flight: 2,
            recovered_ok: 1,
            recovered_failed: 0,
            recovered_unresolved: 1,
            recovery_kills: 3,
            ..CycleReport::default()
        };
        let s = report.stats();
        assert_eq!(s.executions, 1);
        assert_eq!(s.resolved_ops, 41);
        assert_eq!(s.crashes, 5);
        assert_eq!(s.recovered_unresolved, 1);
    }
}
