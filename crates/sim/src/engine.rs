//! The discrete-event execution engine.
//!
//! Programs are executed by list scheduling: an operation becomes *ready* when
//! all of its dependencies (explicit cross-stream deps plus the implicit
//! same-stream FIFO predecessor) have completed; ready operations are started
//! in order of readiness and occupy every hardware resource they touch — the
//! directed link, the NVSwitch injection/ejection port (when the topology
//! declares a per-GPU cap), the server NIC for cross-machine copies, and the
//! GPU's compute engine for kernels — until they finish. Resources serialise
//! their operations, which at chunk granularity is an accurate stand-in for
//! fair time-sharing of a link.
//!
//! # Compile once, run many
//!
//! The autotune and planning loops simulate thousands of candidate programs,
//! and a communicator re-runs each memoised collective program on every
//! call, so execution is split into two steps:
//!
//! * **Compile.** [`Simulator::compile`] validates a program and lowers it to
//!   a [`CompiledProgram`]. Every [`Resource`] an op touches is interned to a
//!   dense integer id and the per-op resource-id lists are laid out in one
//!   flat CSR buffer; each op's duration is precomputed; the dependency
//!   children (explicit deps plus the same-stream FIFO predecessor) become a
//!   second CSR, with each op's in-degree and the list of roots. A copy's
//!   `(src, dst, class)` link is interned *before* anything else about the
//!   copy is computed: the first copy over a link resolves, once per
//!   compilation, the link's capacity (a scan of the topology's links between
//!   the two GPUs) and its non-stream resource ids (the link itself, switch
//!   ports, server NICs), and every later copy over the link reads both from
//!   a per-link table, so a copy costs a few hash lookups however many links
//!   the machine has.
//! * **Scan.** [`Simulator::run_compiled`] (one program) and
//!   [`Simulator::run_compiled_session`] (several) list-schedule a compiled
//!   program. The scan never writes to it: all per-run state — resource free
//!   times, ready times, a copy of the in-degrees, the candidate window and
//!   heap, per-link accounting — lives in an [`EngineScratch`], and nothing
//!   is allocated per iteration, only the report returned at the end.
//!
//! [`Simulator::run`], [`Simulator::run_with_scratch`],
//! [`Simulator::run_session`] and [`Session`] keep taking plain programs:
//! each compiles into the scratch's own layout and scans that, so one
//! compiler and one scheduler sit behind every entry point. A caller that
//! runs the same program again and again (a communicator's memoised
//! collectives) compiles it once and replays the compiled form, paying only
//! the scan.
//!
//! ## The simulator stamp
//!
//! A compiled program bakes in link capacities, port and NIC resources and
//! op durations, so it is valid only for the topology and [`SimParams`] it
//! was compiled for. Compilation stamps it with a fingerprint of both, and
//! running it on a simulator with a different fingerprint — another
//! topology, or other parameters — returns [`SimError::ForeignCompilation`]
//! and schedules nothing. Simulators built from equal topologies and equal
//! parameters share a fingerprint (a topology's name is not part of it), so
//! a program compiled on one communicator's simulator runs on a process
//! group's shared simulator over the same machine.
//!
//! ## Session remapping
//!
//! A session of compiled programs is merged into one layout in the scratch
//! before the scan. Each program's local resource ids go through a
//! per-program table built in one pass over the program's *resources*, not
//! its ops: non-stream resources (links, switch ports, NICs, compute engines)
//! intern into one session table, so programs contend for them, while each
//! program's streams get fresh ids, so stream 3 of program A and stream 3 of
//! program B never serialise. Links are remapped the same way for the
//! per-link accounting. The ops are then copied with their ids rewritten
//! through the tables, with no hashing per op, and the merged layout is the
//! one compiling the plain programs together would give.
//!
//! # The persistent candidate window
//!
//! The scan picks, among the `CANDIDATES` earliest-ready ops in `(ready
//! time, op id)` order, the one that can *start* earliest given current
//! resource occupancy. Those candidates live in a window kept sorted in
//! `(time, id)` order across iterations; every other ready op waits in a
//! min-heap. The invariant is that the window is full or the heap is empty,
//! and every heap entry comes after the window's last entry in `(time, id)`
//! order. Each iteration removes the chosen op from the window and refills it
//! with one heap pop; each newly ready op (roots included) is inserted at its
//! sorted position, and if that overflows the window its last entry is
//! evicted to the heap (an op that sorts after a full window's last entry
//! goes straight to the heap). An op therefore costs a few heap operations
//! and one window scan, not a pop-and-push of the whole candidate set. The
//! scan also stops at the first candidate whose ready time is at least the
//! best start found so far plus the `1e-9` tie tolerance: every later
//! candidate is ready, and so starts, no earlier.
//!
//! The schedule is **bit-identical** to the direct implementation
//! ([`Simulator::run_reference`], kept as the allocating reference the
//! regression tests compare against). Interning, the link table, compiling
//! ahead and session remapping only change how a resource's free time or a
//! link's capacity is looked up, never which resources an op occupies, how
//! long it runs (the duration formula is shared and evaluated in the same
//! order), or how ties are broken. The window holds exactly the ops the
//! reference pops off its heap each iteration, because both are the
//! `CANDIDATES` smallest ready entries under the same total `(time, id)`
//! order, and the scan walks them in that order with the same `1e-9` tie
//! rule, so it picks the same op. Stopping the scan early skips only
//! candidates that cannot win: a ready time is never NaN (issue timestamps
//! are checked finite, and every other ready time is an `f64::max` of op
//! ends starting from `0.0`, which ignores NaN), so a candidate's start, the
//! `max` of its ready time and its resources' free times, is never below its
//! ready time.
//!
//! # Streaming sessions: the admission / contention / determinism contract
//!
//! A [`Session`] generalises single-program execution to a *streaming
//! executor*: several in-flight programs share one simulated machine.
//!
//! * **Admission.** [`Session::admit`] queues a program with an *issue
//!   timestamp* (µs). No op of the program may start before its issue time;
//!   ops become ready at `max(issue, dependency completion)` exactly as in
//!   the single-program scheduler. Issue timestamps are how callers express
//!   cross-program ordering (e.g. "this bucket's gradient is ready at t"):
//!   programs themselves stay independent DAGs.
//! * **Link sharing.** All admitted programs are scheduled over **one**
//!   interned resource table, so contending ops FIFO-serialise on every
//!   shared resource — directed links, switch ports, NICs, compute engines —
//!   at op (chunk) granularity. At that granularity interleaved
//!   serialisation is the engine's stand-in for fair time-sharing of a link,
//!   identical to how two streams of one program already contend.
//!   Streams are namespaced per program: stream 3 of program A and stream 3
//!   of program B never serialise against each other.
//! * **Determinism.** The schedule is a pure function of the admitted
//!   (program, issue) pairs and their admission order. Ties between
//!   equally-ready ops are broken by global issue index (admission order
//!   first, then op id within a program), so re-running a session — or
//!   replaying it through a dirty scratch — reproduces every span bit for
//!   bit.
//! * **Single-program identity.** A session holding exactly one program
//!   admitted at `t = 0` produces spans bit-identical to
//!   [`Simulator::run_with_scratch`] on that program; the single-program
//!   entry points are in fact thin wrappers over the session core, and the
//!   regression tests pin the equivalence.
//! * **Borrowed and compiled programs.** The session core itself is public
//!   as [`Simulator::run_session`], over `(&Program, issue_us)` entries, and
//!   as [`Simulator::run_compiled_session`], over `(&CompiledProgram,
//!   issue_us)` entries: a caller that keeps its programs (a communicator
//!   reusing the programs it lowered and compiled) schedules them in place,
//!   and [`Session`] is the owning front-end over the same scheduler. Both
//!   forms give the same report for the same programs.
//!
//! # The scratch-reuse contract
//!
//! [`EngineScratch`] obeys the same rules as `blink-graph`'s planning
//! scratches: it is a buffer, not state (any run through an arbitrarily
//! dirty scratch returns a report bit-identical to a fresh-scratch run — the
//! compile and the scan rewrite every entry they will read), it grows to the
//! largest program seen and never shrinks, one scratch may be threaded
//! through runs over different programs, compiled programs and topologies in
//! any order, and it is `Send` (asserted at compile time below) so
//! per-worker pools can move scratches across threads — but never share one
//! mutably between concurrent runs. A [`CompiledProgram`] is immutable once
//! built: any number of runs may replay it, interleaved with other programs,
//! through one scratch or many.

use crate::params::SimParams;
use crate::program::{LinkClass, OpKind, Program, StreamId};
use blink_topology::{GpuId, LinkKind, ServerId, Topology};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Errors raised while executing a program.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A copy references a GPU pair with no link of the requested class.
    MissingLink {
        /// Copy source.
        src: GpuId,
        /// Copy destination.
        dst: GpuId,
        /// Requested link class.
        class: LinkClass,
    },
    /// A GPU referenced by the program is not part of the topology.
    UnknownGpu(GpuId),
    /// The program failed validation.
    InvalidProgram(String),
    /// A [`CompiledProgram`] was run on a simulator with another topology or
    /// other parameters than the one that compiled it.
    ForeignCompilation,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingLink { src, dst, class } => {
                write!(f, "no {class} link from {src} to {dst}")
            }
            SimError::UnknownGpu(g) => write!(f, "GPU {g} is not in the topology"),
            SimError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
            SimError::ForeignCompilation => write!(
                f,
                "the program was compiled for another topology or other simulator parameters"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Execution result.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock time of the whole program in microseconds.
    pub total_us: f64,
    /// Per-op `(start, end)` times in microseconds, indexed by op id.
    pub op_spans: Vec<(f64, f64)>,
    /// Busy time per directed link actually used, in microseconds.
    pub link_busy_us: BTreeMap<(GpuId, GpuId, LinkClass), f64>,
    /// Bytes moved per directed link actually used.
    pub link_bytes: BTreeMap<(GpuId, GpuId, LinkClass), u64>,
}

impl RunReport {
    /// Algorithmic bandwidth: `logical_bytes / total time`, in GB/s.
    ///
    /// `logical_bytes` is the collective's buffer size (what the paper's
    /// throughput figures divide by), not the number of bytes physically
    /// moved.
    pub fn algorithmic_bandwidth_gbps(&self, logical_bytes: u64) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        logical_bytes as f64 / (self.total_us * 1000.0)
    }

    /// Utilisation of a link over the whole run (busy time / total time).
    pub fn link_utilization(&self, src: GpuId, dst: GpuId, class: LinkClass) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        self.link_busy_us
            .get(&(src, dst, class))
            .map(|b| b / self.total_us)
            .unwrap_or(0.0)
    }

    /// Number of distinct directed links that carried any traffic.
    pub fn links_used(&self) -> usize {
        self.link_bytes.len()
    }
}

/// Timing of one admitted program inside a [`SessionReport`].
#[derive(Debug, Clone)]
pub struct ProgramSpan {
    /// The issue timestamp the program was admitted with.
    pub issue_us: f64,
    /// When the program's first op actually started (equals `issue_us` for an
    /// empty program).
    pub start_us: f64,
    /// When the program's last op finished (equals `issue_us` for an empty
    /// program).
    pub end_us: f64,
    /// Per-op `(start, end)` times, indexed by the program's own op ids.
    pub op_spans: Vec<(f64, f64)>,
}

impl ProgramSpan {
    /// Time from admission to completion (includes any queueing delay spent
    /// waiting on contended resources).
    pub fn elapsed_us(&self) -> f64 {
        self.end_us - self.issue_us
    }

    /// Time the program's first op spent waiting behind other traffic after
    /// its issue timestamp.
    pub fn queue_delay_us(&self) -> f64 {
        self.start_us - self.issue_us
    }
}

/// Result of executing a [`Session`]: per-program spans plus session-wide
/// link accounting (the per-link maps aggregate traffic from *all* admitted
/// programs).
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// End-to-end makespan of the session in microseconds, measured from
    /// `t = 0`: the latest program completion time.
    pub total_us: f64,
    /// One entry per admitted program, in admission order.
    pub programs: Vec<ProgramSpan>,
    /// Busy time per directed link actually used, in microseconds.
    pub link_busy_us: BTreeMap<(GpuId, GpuId, LinkClass), f64>,
    /// Bytes moved per directed link actually used.
    pub link_bytes: BTreeMap<(GpuId, GpuId, LinkClass), u64>,
}

impl SessionReport {
    /// The report of a one-program session, as a single-program report.
    fn into_run_report(mut self) -> RunReport {
        let prog = self.programs.pop().expect("exactly one admitted program");
        RunReport {
            total_us: self.total_us,
            op_spans: prog.op_spans,
            link_busy_us: self.link_busy_us,
            link_bytes: self.link_bytes,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Resource {
    Link(GpuId, GpuId, u8),
    EgressPort(GpuId),
    IngressPort(GpuId),
    NicOut(ServerId),
    NicIn(ServerId),
    Compute(GpuId),
    Stream(StreamId),
}

fn class_tag(class: LinkClass) -> u8 {
    match class {
        LinkClass::NvLink => 0,
        LinkClass::Pcie => 1,
        LinkClass::Network => 2,
    }
}

/// A ready op in the scheduler's priority queue (min-heap on `(time, id)`).
#[derive(Debug, Clone, PartialEq)]
struct Ready {
    time: f64,
    id: usize,
}
impl Eq for Ready {}
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap on (time, id)
        other
            .time
            .total_cmp(&self.time)
            .then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ready {
    /// Whether `self` comes strictly before `other` in `(time, id)` order —
    /// the order the heap pops in (ids are unique, so it is total).
    fn precedes(&self, other: &Ready) -> bool {
        self.time
            .total_cmp(&other.time)
            .then(self.id.cmp(&other.id))
            .is_lt()
    }
}

/// Among the ready operations, run the one that can actually *start* earliest
/// given current resource occupancy (ties broken by issue order). Only the
/// `CANDIDATES` earliest-ready ops in `(time, id)` order are considered: the
/// fast path keeps them in a persistent sorted window (every other ready op
/// sits in a heap and sorts after the window's last entry) and the reference
/// pops them off its heap each iteration; both scan the same ops in the same
/// order. The bound keeps the scan cost per op constant while still packing
/// independent flows (e.g. the 16x15 one-hop pattern on a DGX-2) tightly.
const CANDIDATES: usize = 128;

/// Sentinel for "op occupies no link" in the per-op link table, and for "no
/// same-stream predecessor" while compiling.
const NO_LINK: u32 = u32::MAX;

/// The flat form the scan runs: one program's ops, or a whole session's in
/// admission order, with interned resources and links, precomputed
/// durations and the dependency CSR.
#[derive(Debug, Clone, Default)]
struct Layout {
    /// Program `p` owns ops `op_base[p]..op_base[p + 1]`.
    op_base: Vec<u32>,
    /// CSR: op `i`'s resource ids are `op_res[op_res_start[i]..op_res_start[i + 1]]`.
    op_res_start: Vec<u32>,
    op_res: Vec<u32>,
    /// Precomputed duration per op.
    durations: Vec<f64>,
    /// Interned link per op (`NO_LINK` for non-copies).
    op_link: Vec<u32>,
    /// Payload bytes per op (copies only; 0 otherwise).
    op_bytes: Vec<u64>,
    /// Dependencies per op: explicit deps plus the same-stream predecessor.
    indeg: Vec<u32>,
    /// CSR: op `i`'s dependants are `children[child_start[i]..child_start[i + 1]]`.
    child_start: Vec<u32>,
    children: Vec<u32>,
    /// Ops without dependencies, ascending.
    roots: Vec<u32>,
    /// The resource behind each interned id.
    resources: Vec<Resource>,
    /// The directed link behind each interned link id.
    links: Vec<(GpuId, GpuId, LinkClass)>,
    /// One more than the largest stream id in use (0 without ops).
    streams: usize,
}

impl Layout {
    fn len(&self) -> usize {
        self.durations.len()
    }

    fn clear(&mut self) {
        self.op_base.clear();
        self.op_res_start.clear();
        self.op_res.clear();
        self.durations.clear();
        self.op_link.clear();
        self.op_bytes.clear();
        self.indeg.clear();
        self.child_start.clear();
        self.children.clear();
        self.roots.clear();
        self.resources.clear();
        self.links.clear();
        self.streams = 0;
    }
}

/// The tables compiling and session remapping build and then drop; rebuilt
/// per use (rebuilding a `HashMap` reuses its allocation).
#[derive(Debug, Clone, Default)]
struct Tables {
    /// Resource -> dense id.
    res_ids: HashMap<Resource, u32>,
    /// Link -> dense link id.
    link_ids: HashMap<(GpuId, GpuId, LinkClass), u32>,
    /// Capacity (GB/s) per interned link.
    link_bw: Vec<f64>,
    /// CSR: link `l`'s non-stream resource ids (link, switch ports, NICs)
    /// are `link_res[link_res_start[l]..link_res_start[l + 1]]`.
    link_res_start: Vec<u32>,
    link_res: Vec<u32>,
    /// The latest op seen per stream, for the implicit FIFO dependency.
    last_in_stream: HashMap<StreamId, u32>,
    /// Implicit same-stream FIFO predecessor per op (`NO_LINK` = none).
    extra_dep: Vec<u32>,
    child_cursor: Vec<u32>,
    /// Session remapping: one program's local resource and link ids to the
    /// session's.
    res_map: Vec<u32>,
    link_map: Vec<u32>,
}

/// What one scan writes: everything that changes while a schedule unfolds.
#[derive(Debug, Clone, Default)]
struct ScanState {
    /// Free time per interned resource id.
    resource_free: Vec<f64>,
    ready_time: Vec<f64>,
    /// Dependencies still outstanding per op.
    indeg: Vec<u32>,
    link_busy: Vec<f64>,
    link_bytes: Vec<u64>,
    /// Ready ops outside the candidate window; each sorts after the
    /// window's last entry.
    heap: BinaryHeap<Ready>,
    /// The `CANDIDATES` earliest-ready ops, sorted in `(time, id)` order.
    window: Vec<Ready>,
}

/// Reusable engine buffers: the compile tables, the layout plain programs
/// and merged sessions compile into, and the scan's per-run state (resource
/// free times, ready times, in-degrees, link accounting, the candidate
/// window and heap). See the module docs for the scratch-reuse contract; a
/// fresh scratch is `Default`-constructible and the struct is `Clone` and
/// `Send`.
#[derive(Debug, Clone, Default)]
pub struct EngineScratch {
    tables: Tables,
    layout: Layout,
    state: ScanState,
}

impl EngineScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

// The engine mirrors rule 4 of blink-graph's scratch-reuse contract: a
// scratch must stay `Send` so per-worker pools can carry one into a thread.
// Compiled programs are shared read-only, so they must also be `Sync`.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<EngineScratch>();
    assert_send_sync::<CompiledProgram>();
};

/// A program compiled for one simulator by [`Simulator::compile`]: validated,
/// with its resources interned and its durations, dependency CSR, in-degrees,
/// roots and per-link table precomputed, so a run pays only the scan. It is
/// stamped with the topology and [`SimParams`] it was compiled for; see the
/// module docs for the compile-once/run-many contract.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    stamp: u64,
    layout: Layout,
}

impl CompiledProgram {
    /// Number of ops.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.layout.len() == 0
    }
}

/// Removes the window's `idx`-th candidate and refills the window with one
/// heap pop, which keeps the window invariant: the heap's minimum sorts
/// after the window's last entry.
fn take_candidate(window: &mut Vec<Ready>, heap: &mut BinaryHeap<Ready>, idx: usize) -> Ready {
    let chosen = window.remove(idx);
    if let Some(next) = heap.pop() {
        window.push(next);
    }
    chosen
}

/// Admits a newly ready op while keeping the window invariant: the window is
/// sorted, full or the only holder of ready ops, and every heap entry sorts
/// after its last entry.
fn admit_ready(window: &mut Vec<Ready>, heap: &mut BinaryHeap<Ready>, ready: Ready) {
    if window.len() == CANDIDATES {
        if !ready.precedes(&window[CANDIDATES - 1]) {
            heap.push(ready);
            return;
        }
        // evict the window's last entry to make room
        heap.push(window.pop().expect("the window is full"));
    }
    let pos = window.partition_point(|w| w.precedes(&ready));
    window.insert(pos, ready);
}

fn validate(program: &Program) -> Result<(), SimError> {
    program
        .validate()
        .map_err(|e| SimError::InvalidProgram(e.to_string()))
}

fn check_issue(issue: f64) -> Result<(), SimError> {
    if !issue.is_finite() || issue < 0.0 {
        return Err(SimError::InvalidProgram(format!(
            "issue timestamp {issue} must be finite and non-negative"
        )));
    }
    Ok(())
}

/// Merges compiled programs into one session layout (see "Session
/// remapping" in the module docs): per program, one pass over its resources
/// and links builds the local-to-session tables, then its ops are copied
/// with their ids rewritten.
fn merge_into(parts: &[&Layout], layout: &mut Layout, t: &mut Tables) {
    layout.clear();
    t.res_ids.clear();
    t.link_ids.clear();
    for src in parts {
        let op0 = layout.len() as u32;
        let child0 = layout.children.len() as u32;
        let res0 = layout.op_res.len() as u32;
        layout.op_base.push(op0);
        t.res_map.clear();
        for &r in &src.resources {
            let next = layout.resources.len() as u32;
            let id = match r {
                Resource::Stream(s) => {
                    layout
                        .resources
                        .push(Resource::Stream(StreamId(layout.streams + s.0)));
                    next
                }
                shared => {
                    let resources = &mut layout.resources;
                    *t.res_ids.entry(shared).or_insert_with(|| {
                        resources.push(shared);
                        next
                    })
                }
            };
            t.res_map.push(id);
        }
        layout.streams += src.streams;
        t.link_map.clear();
        for &key in &src.links {
            let next = layout.links.len() as u32;
            let id = *t.link_ids.entry(key).or_insert(next);
            if id == next {
                layout.links.push(key);
            }
            t.link_map.push(id);
        }
        let n = src.len();
        let res_map = &t.res_map;
        let link_map = &t.link_map;
        layout
            .op_res_start
            .extend(src.op_res_start[..n].iter().map(|&o| res0 + o));
        layout
            .op_res
            .extend(src.op_res.iter().map(|&r| res_map[r as usize]));
        layout.durations.extend_from_slice(&src.durations);
        layout.op_link.extend(src.op_link.iter().map(|&l| {
            if l == NO_LINK {
                NO_LINK
            } else {
                link_map[l as usize]
            }
        }));
        layout.op_bytes.extend_from_slice(&src.op_bytes);
        layout.indeg.extend_from_slice(&src.indeg);
        layout
            .child_start
            .extend(src.child_start[..n].iter().map(|&c| child0 + c));
        layout
            .children
            .extend(src.children.iter().map(|&c| op0 + c));
        layout.roots.extend(src.roots.iter().map(|&r| op0 + r));
    }
    layout.op_base.push(layout.len() as u32);
    layout.op_res_start.push(layout.op_res.len() as u32);
    layout.child_start.push(layout.children.len() as u32);
}

/// The scheduler behind every entry point: list-schedules every op of
/// `layout` over the per-run state in `st`, program `p`'s roots becoming
/// ready at `issues[p]`. Reads `layout` only.
fn scan(layout: &Layout, issues: &[f64], st: &mut ScanState) -> Result<SessionReport, SimError> {
    debug_assert_eq!(issues.len() + 1, layout.op_base.len());
    let n = layout.len();
    st.resource_free.clear();
    st.resource_free.resize(layout.resources.len(), 0.0);
    st.link_busy.clear();
    st.link_busy.resize(layout.links.len(), 0.0);
    st.link_bytes.clear();
    st.link_bytes.resize(layout.links.len(), 0);
    st.ready_time.clear();
    st.ready_time.resize(n, 0.0);
    st.indeg.clear();
    st.indeg.extend_from_slice(&layout.indeg);
    st.heap.clear();
    st.window.clear();
    // Roots become ready at their program's issue timestamp; every other op
    // inherits `>= issue` transitively through its deps.
    let mut p = 0usize;
    for &root in &layout.roots {
        while root >= layout.op_base[p + 1] {
            p += 1;
        }
        let ready = Ready {
            time: issues[p],
            id: root as usize,
        };
        admit_ready(&mut st.window, &mut st.heap, ready);
    }

    let mut op_spans = vec![(0.0, 0.0); n];
    let mut total = 0.0f64;
    let mut done = 0usize;

    // ---- the zero-allocation scan over the persistent window ----
    while !st.window.is_empty() {
        let mut best_idx = 0usize;
        let mut best_start = f64::INFINITY;
        let mut best_key = usize::MAX;
        for (idx, cand) in st.window.iter().enumerate() {
            // A candidate starts no earlier than it is ready, and the
            // window is sorted by ready time: from here on no candidate
            // can beat `best_start`, even on the tie rule.
            if cand.time >= best_start + 1e-9 {
                break;
            }
            let (lo, hi) = (
                layout.op_res_start[cand.id] as usize,
                layout.op_res_start[cand.id + 1] as usize,
            );
            let mut start = cand.time;
            for &r in &layout.op_res[lo..hi] {
                start = start.max(st.resource_free[r as usize]);
            }
            if start < best_start - 1e-9 || (start < best_start + 1e-9 && cand.id < best_key) {
                best_start = start;
                best_idx = idx;
                best_key = cand.id;
            }
        }
        let Ready { time, id } = take_candidate(&mut st.window, &mut st.heap, best_idx);
        let duration = layout.durations[id];
        let (lo, hi) = (
            layout.op_res_start[id] as usize,
            layout.op_res_start[id + 1] as usize,
        );
        let mut start = time;
        for &r in &layout.op_res[lo..hi] {
            start = start.max(st.resource_free[r as usize]);
        }
        let end = start + duration;
        for &r in &layout.op_res[lo..hi] {
            st.resource_free[r as usize] = end;
        }
        op_spans[id] = (start, end);
        total = total.max(end);
        if layout.op_link[id] != NO_LINK {
            let l = layout.op_link[id] as usize;
            st.link_busy[l] += duration;
            st.link_bytes[l] += layout.op_bytes[id];
        }
        done += 1;
        let (clo, chi) = (
            layout.child_start[id] as usize,
            layout.child_start[id + 1] as usize,
        );
        for &c in &layout.children[clo..chi] {
            let c = c as usize;
            st.ready_time[c] = st.ready_time[c].max(end);
            st.indeg[c] -= 1;
            if st.indeg[c] == 0 {
                let ready = Ready {
                    time: st.ready_time[c],
                    id: c,
                };
                admit_ready(&mut st.window, &mut st.heap, ready);
            }
        }
    }

    if done != n {
        return Err(SimError::InvalidProgram(
            "dependency cycle: not every op became ready".to_string(),
        ));
    }

    let link_busy_us = layout
        .links
        .iter()
        .copied()
        .zip(st.link_busy.iter().copied())
        .collect();
    let link_bytes = layout
        .links
        .iter()
        .copied()
        .zip(st.link_bytes.iter().copied())
        .collect();
    let mut programs = Vec::with_capacity(issues.len());
    for (p, &issue) in issues.iter().enumerate() {
        let (lo, hi) = (layout.op_base[p] as usize, layout.op_base[p + 1] as usize);
        let (mut start, mut end) = (issue, issue);
        for (k, &(s0, e0)) in op_spans[lo..hi].iter().enumerate() {
            start = if k == 0 { s0 } else { start.min(s0) };
            end = end.max(e0);
        }
        total = total.max(end);
        // a lone program takes the span buffer instead of copying it
        let spans = if issues.len() == 1 {
            std::mem::take(&mut op_spans)
        } else {
            op_spans[lo..hi].to_vec()
        };
        programs.push(ProgramSpan {
            issue_us: issue,
            start_us: start,
            end_us: end,
            op_spans: spans,
        });
    }
    Ok(SessionReport {
        total_us: total,
        programs,
        link_busy_us,
        link_bytes,
    })
}

/// Executes [`Program`]s against a [`Topology`] with given [`SimParams`].
#[derive(Debug, Clone)]
pub struct Simulator {
    topology: Topology,
    params: SimParams,
    /// Fingerprint of `topology` and `params` that compiled programs are
    /// stamped with; computed on first use.
    stamp: OnceLock<u64>,
}

impl Simulator {
    /// Creates a simulator for `topology` with `params`.
    pub fn new(topology: Topology, params: SimParams) -> Self {
        Simulator {
            topology,
            params,
            stamp: OnceLock::new(),
        }
    }

    /// Creates a simulator with default calibration parameters.
    pub fn with_defaults(topology: Topology) -> Self {
        Self::new(topology, SimParams::default())
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// The fingerprint compiled programs are stamped with: everything about
    /// the topology and parameters that a compiled program bakes in (GPUs,
    /// servers, links, switch-port caps, NICs and every parameter), not the
    /// topology's name.
    fn stamp(&self) -> u64 {
        *self.stamp.get_or_init(|| {
            let mut h = DefaultHasher::new();
            let t = &self.topology;
            for g in t.gpus() {
                (g.id, g.server, t.gpu_cap(g.id).map(f64::to_bits)).hash(&mut h);
            }
            for s in t.servers() {
                (s, t.server_nic(s).map(f64::to_bits)).hash(&mut h);
            }
            for l in t.links() {
                (l.src, l.dst, l.kind, l.lanes, l.bandwidth_gbps.to_bits()).hash(&mut h);
            }
            let SimParams {
                op_launch_overhead_us,
                reduce_bandwidth_gbps,
                dpa_per_gpu_us,
                link_latency_us,
                network_latency_us,
                per_segment_overhead_us,
            } = self.params;
            for x in [
                op_launch_overhead_us,
                reduce_bandwidth_gbps,
                dpa_per_gpu_us,
                link_latency_us,
                network_latency_us,
                per_segment_overhead_us,
            ] {
                x.to_bits().hash(&mut h);
            }
            h.finish()
        })
    }

    /// The capacity of the `(src, dst, class)` link, or
    /// [`SimError::MissingLink`] when the topology has none.
    fn link_capacity(&self, src: GpuId, dst: GpuId, class: LinkClass) -> Result<f64, SimError> {
        let bw: f64 = self
            .topology
            .links_between(src, dst)
            .filter(|l| match class {
                LinkClass::NvLink => l.kind.is_nvlink(),
                LinkClass::Pcie => l.kind == LinkKind::Pcie,
                LinkClass::Network => l.kind == LinkKind::Network,
            })
            .map(|l| l.capacity_gbps())
            .sum();
        if bw <= 0.0 {
            return Err(SimError::MissingLink { src, dst, class });
        }
        Ok(bw)
    }

    /// Duration of a copy `kind` over a link of capacity `bw` GB/s.
    fn copy_duration(&self, kind: &OpKind, class: LinkClass, bw: f64) -> f64 {
        let p = &self.params;
        let latency = match class {
            LinkClass::Network => p.network_latency_us,
            _ => p.link_latency_us,
        };
        p.op_launch_overhead_us
            + latency
            + SimParams::transfer_us(kind.payload_bytes(), bw)
            + p.segment_overhead_us(kind.segments().len())
    }

    fn op_duration(&self, kind: &OpKind) -> Result<f64, SimError> {
        let p = &self.params;
        Ok(match *kind {
            OpKind::Copy {
                src, dst, class, ..
            } => self.copy_duration(kind, class, self.link_capacity(src, dst, class)?),
            OpKind::Reduce { .. } => {
                p.reduce_us(kind.payload_bytes()) + p.segment_overhead_us(kind.segments().len())
            }
            OpKind::Compute { duration_us, .. } => p.op_launch_overhead_us + duration_us,
            OpKind::TogglePeerAccess { gpus } => f64::from(gpus) * p.dpa_per_gpu_us,
        })
    }

    /// The one definition of which hardware resources an op occupies, shared
    /// by the allocating reference path and the compiler.
    fn for_each_resource(
        &self,
        kind: &OpKind,
        stream: StreamId,
        mut f: impl FnMut(Resource),
    ) -> Result<(), SimError> {
        f(Resource::Stream(stream));
        match *kind {
            OpKind::Copy {
                src, dst, class, ..
            } => self.for_each_link_resource(src, dst, class, f)?,
            OpKind::Reduce { gpu, .. } => {
                if !self.topology.contains(gpu) {
                    return Err(SimError::UnknownGpu(gpu));
                }
            }
            OpKind::Compute { gpu, .. } => {
                if !self.topology.contains(gpu) {
                    return Err(SimError::UnknownGpu(gpu));
                }
                f(Resource::Compute(gpu));
            }
            OpKind::TogglePeerAccess { .. } => {}
        }
        Ok(())
    }

    /// The non-stream resources a copy over `(src, dst, class)` occupies: the
    /// directed link, plus the NVSwitch ports or server NICs where the
    /// topology declares them. Depends only on the link, which is what lets
    /// the compiler resolve it once per interned link.
    fn for_each_link_resource(
        &self,
        src: GpuId,
        dst: GpuId,
        class: LinkClass,
        mut f: impl FnMut(Resource),
    ) -> Result<(), SimError> {
        if !self.topology.contains(src) {
            return Err(SimError::UnknownGpu(src));
        }
        if !self.topology.contains(dst) {
            return Err(SimError::UnknownGpu(dst));
        }
        f(Resource::Link(src, dst, class_tag(class)));
        if class == LinkClass::NvLink {
            if self.topology.gpu_cap(src).is_some() {
                f(Resource::EgressPort(src));
            }
            if self.topology.gpu_cap(dst).is_some() {
                f(Resource::IngressPort(dst));
            }
        }
        if class == LinkClass::Network {
            let s_srv = self
                .topology
                .gpu(src)
                .map_err(|_| SimError::UnknownGpu(src))?
                .server;
            let d_srv = self
                .topology
                .gpu(dst)
                .map_err(|_| SimError::UnknownGpu(dst))?
                .server;
            if self.topology.server_nic(s_srv).is_some() {
                f(Resource::NicOut(s_srv));
            }
            if self.topology.server_nic(d_srv).is_some() {
                f(Resource::NicIn(d_srv));
            }
        }
        Ok(())
    }

    fn op_resources(&self, kind: &OpKind, stream: StreamId) -> Result<Vec<Resource>, SimError> {
        let mut res = Vec::new();
        self.for_each_resource(kind, stream, |r| res.push(r))?;
        Ok(res)
    }

    /// The compile step every entry point shares: lowers already validated
    /// `programs` (one, or a session's in admission order) into `layout`,
    /// namespacing streams per program.
    fn compile_into(
        &self,
        programs: &[&Program],
        layout: &mut Layout,
        t: &mut Tables,
    ) -> Result<(), SimError> {
        let n: usize = programs.iter().map(|p| p.len()).sum();
        layout.clear();
        layout.op_res_start.reserve(n + 1);
        layout.durations.reserve(n);
        layout.op_link.reserve(n);
        layout.op_bytes.reserve(n);
        t.res_ids.clear();
        t.link_ids.clear();
        t.link_bw.clear();
        t.link_res.clear();
        t.link_res_start.clear();
        t.link_res_start.push(0);
        t.last_in_stream.clear();
        t.extra_dep.clear();
        t.extra_dep.resize(n, NO_LINK);

        // ---- durations, interned per-op resource lists (CSR),
        //      per-program stream namespacing, same-stream FIFO deps ----
        let mut g = 0usize;
        for program in programs {
            layout.op_base.push(g as u32);
            // Namespace streams per program so two programs' stream 0
            // never FIFO-serialise against each other.
            let stream_base = layout.streams;
            for op in program.ops() {
                layout.op_res_start.push(layout.op_res.len() as u32);
                let stream = StreamId(stream_base + op.stream.0);
                layout.streams = layout.streams.max(stream.0 + 1);
                let res_ids = &mut t.res_ids;
                let resources = &mut layout.resources;
                let mut intern = |r: Resource| {
                    let next = res_ids.len() as u32;
                    *res_ids.entry(r).or_insert_with(|| {
                        resources.push(r);
                        next
                    })
                };
                if let OpKind::Copy {
                    src, dst, class, ..
                } = op.kind
                {
                    // The per-link table: capacity and non-stream resource
                    // ids are resolved on a link's first copy only.
                    let next = layout.links.len() as u32;
                    let l = *t.link_ids.entry((src, dst, class)).or_insert(next);
                    if l == next {
                        layout.links.push((src, dst, class));
                        t.link_bw.push(self.link_capacity(src, dst, class)?);
                        let link_res = &mut t.link_res;
                        self.for_each_link_resource(src, dst, class, |r| link_res.push(intern(r)))?;
                        t.link_res_start.push(t.link_res.len() as u32);
                    }
                    let l = l as usize;
                    layout
                        .durations
                        .push(self.copy_duration(&op.kind, class, t.link_bw[l]));
                    layout.op_res.push(intern(Resource::Stream(stream)));
                    let (lo, hi) = (
                        t.link_res_start[l] as usize,
                        t.link_res_start[l + 1] as usize,
                    );
                    layout.op_res.extend_from_slice(&t.link_res[lo..hi]);
                    layout.op_link.push(l as u32);
                    layout.op_bytes.push(op.kind.payload_bytes());
                } else {
                    layout.durations.push(self.op_duration(&op.kind)?);
                    let op_res = &mut layout.op_res;
                    self.for_each_resource(&op.kind, stream, |r| op_res.push(intern(r)))?;
                    layout.op_link.push(NO_LINK);
                    layout.op_bytes.push(0);
                }
                if let Some(&prev) = t.last_in_stream.get(&stream) {
                    t.extra_dep[g] = prev;
                }
                t.last_in_stream.insert(stream, g as u32);
                g += 1;
            }
        }
        layout.op_base.push(g as u32);
        layout.op_res_start.push(layout.op_res.len() as u32);

        // ---- dependency bookkeeping: in-degrees, children CSR, roots ----
        layout.indeg.resize(n, 0);
        layout.child_start.resize(n + 1, 0);
        for (p, program) in programs.iter().enumerate() {
            let base = layout.op_base[p] as usize;
            for (i, op) in program.ops().iter().enumerate() {
                let gi = base + i;
                for &d in &op.deps {
                    layout.indeg[gi] += 1;
                    layout.child_start[base + d.0 + 1] += 1;
                }
                if t.extra_dep[gi] != NO_LINK {
                    layout.indeg[gi] += 1;
                    layout.child_start[t.extra_dep[gi] as usize + 1] += 1;
                }
            }
        }
        for k in 1..=n {
            layout.child_start[k] += layout.child_start[k - 1];
        }
        layout.children.resize(layout.child_start[n] as usize, 0);
        t.child_cursor.clear();
        t.child_cursor.extend_from_slice(&layout.child_start[..n]);
        for (p, program) in programs.iter().enumerate() {
            let base = layout.op_base[p] as usize;
            for (i, op) in program.ops().iter().enumerate() {
                let gi = base + i;
                for &d in &op.deps {
                    let c = &mut t.child_cursor[base + d.0];
                    layout.children[*c as usize] = gi as u32;
                    *c += 1;
                }
                if t.extra_dep[gi] != NO_LINK {
                    let c = &mut t.child_cursor[t.extra_dep[gi] as usize];
                    layout.children[*c as usize] = gi as u32;
                    *c += 1;
                }
            }
        }
        layout
            .roots
            .extend((0..n as u32).filter(|&i| layout.indeg[i as usize] == 0));
        Ok(())
    }

    /// Compiles `program` for this simulator: validates it and precomputes
    /// everything a run would otherwise redo (see the module docs). Run the
    /// result with [`Simulator::run_compiled`] or
    /// [`Simulator::run_compiled_session`] on this simulator, or on any
    /// simulator over an equal topology with equal parameters.
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn compile(&self, program: &Program) -> Result<CompiledProgram, SimError> {
        validate(program)?;
        let mut layout = Layout::default();
        self.compile_into(&[program], &mut layout, &mut Tables::default())?;
        Ok(CompiledProgram {
            stamp: self.stamp(),
            layout,
        })
    }

    fn check_stamp(&self, compiled: &CompiledProgram) -> Result<(), SimError> {
        if compiled.stamp == self.stamp() {
            Ok(())
        } else {
            Err(SimError::ForeignCompilation)
        }
    }

    /// Runs `program` and reports timings, allocating a fresh
    /// [`EngineScratch`] for the call. Loops that simulate many programs
    /// should hold a scratch and call [`Simulator::run_with_scratch`]
    /// instead, and loops that run one program many times should compile it
    /// once and call [`Simulator::run_compiled`].
    ///
    /// # Errors
    /// Fails if the program is structurally invalid, references GPUs outside
    /// the topology, or copies over a link class that does not exist between
    /// the two endpoints.
    pub fn run(&self, program: &Program) -> Result<RunReport, SimError> {
        self.run_with_scratch(program, &mut EngineScratch::new())
    }

    /// Runs `program` over reusable `scratch` buffers: compiles it into the
    /// scratch, then scans it. The returned report is bit-identical to
    /// [`Simulator::run_reference`] on the same program (pinned by
    /// regression tests).
    ///
    /// This is a thin wrapper over the session core: a one-program session
    /// admitted at `t = 0` (see the module docs for the contract that makes
    /// the wrapper exact).
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn run_with_scratch(
        &self,
        program: &Program,
        scratch: &mut EngineScratch,
    ) -> Result<RunReport, SimError> {
        Ok(self
            .run_session(&[(program, 0.0)], scratch)?
            .into_run_report())
    }

    /// Replays a program compiled by [`Simulator::compile`]: only the scan
    /// runs. The report is bit-identical to [`Simulator::run_with_scratch`]
    /// (and so to [`Simulator::run_reference`]) on the program it was
    /// compiled from.
    ///
    /// # Errors
    /// [`SimError::ForeignCompilation`] if `compiled` was compiled for
    /// another topology or other parameters.
    pub fn run_compiled(
        &self,
        compiled: &CompiledProgram,
        scratch: &mut EngineScratch,
    ) -> Result<RunReport, SimError> {
        self.check_stamp(compiled)?;
        Ok(scan(&compiled.layout, &[0.0], &mut scratch.state)?.into_run_report())
    }

    /// The session core: schedules every op of every `(program, issue_us)`
    /// entry over one shared interned resource table, under the
    /// admission / contention / determinism contract of the module docs.
    /// Single-program execution ([`Simulator::run_with_scratch`]) is the
    /// `entries.len() == 1`, `issue_us == 0.0` special case, and
    /// [`Session::run_with_scratch`] calls this over references to its
    /// admitted programs, so every entry point shares one scheduler.
    ///
    /// Callers that already hold their programs elsewhere schedule them here
    /// by reference instead of cloning each into [`Session::admit`], and
    /// callers that hold them compiled use
    /// [`Simulator::run_compiled_session`]. `programs[i]` of the report
    /// belongs to `entries[i]`.
    ///
    /// # Errors
    /// Same conditions as [`Session::run`].
    pub fn run_session(
        &self,
        entries: &[(&Program, f64)],
        scratch: &mut EngineScratch,
    ) -> Result<SessionReport, SimError> {
        for &(program, issue) in entries {
            validate(program)?;
            check_issue(issue)?;
        }
        let programs: Vec<&Program> = entries.iter().map(|e| e.0).collect();
        let issues: Vec<f64> = entries.iter().map(|e| e.1).collect();
        let EngineScratch {
            tables,
            layout,
            state,
        } = scratch;
        self.compile_into(&programs, layout, tables)?;
        scan(layout, &issues, state)
    }

    /// [`Simulator::run_session`] over compiled programs: the programs'
    /// layouts are remapped into one session layout (see "Session
    /// remapping" in the module docs) and scanned, with no validation or
    /// per-op hashing. The report is bit-identical to
    /// [`Simulator::run_session`] over the programs they were compiled from.
    ///
    /// # Errors
    /// [`SimError::ForeignCompilation`] if any entry was compiled for another
    /// topology or other parameters, or an issue timestamp is negative, NaN
    /// or infinite.
    pub fn run_compiled_session(
        &self,
        entries: &[(&CompiledProgram, f64)],
        scratch: &mut EngineScratch,
    ) -> Result<SessionReport, SimError> {
        for &(compiled, issue) in entries {
            self.check_stamp(compiled)?;
            check_issue(issue)?;
        }
        let issues: Vec<f64> = entries.iter().map(|e| e.1).collect();
        let EngineScratch {
            tables,
            layout,
            state,
        } = scratch;
        let parts: Vec<&Layout> = entries.iter().map(|e| &e.0.layout).collect();
        merge_into(&parts, layout, tables);
        scan(layout, &issues, state)
    }

    /// Creates an empty streaming [`Session`] over this simulator. Admit
    /// programs with [`Session::admit`], then execute them all with
    /// [`Session::run`]; see the module docs for the
    /// admission/contention/determinism contract.
    pub fn session(&self) -> Session<'_> {
        Session {
            sim: self,
            entries: Vec::new(),
        }
    }

    /// The pre-interning scheduler, preserved verbatim: identical list
    /// scheduling over ordered maps with per-candidate resource-list
    /// allocation. Retired from `bench_sim`'s default measurement path (the
    /// recorded BENCH trajectory now carries that comparison); it stays
    /// compiled as the oracle the regression tests pin
    /// [`Simulator::run_with_scratch`] bit-identical against.
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn run_reference(&self, program: &Program) -> Result<RunReport, SimError> {
        program
            .validate()
            .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
        let n = program.len();
        let ops = program.ops();

        // implicit same-stream FIFO dependencies
        let mut extra_dep: Vec<Option<usize>> = vec![None; n];
        let mut last_in_stream: BTreeMap<StreamId, usize> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            if let Some(&prev) = last_in_stream.get(&op.stream) {
                extra_dep[i] = Some(prev);
            }
            last_in_stream.insert(op.stream, i);
        }

        // dependency bookkeeping
        let mut indeg = vec![0usize; n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, op) in ops.iter().enumerate() {
            for &d in &op.deps {
                indeg[i] += 1;
                children[d.0].push(i);
            }
            if let Some(prev) = extra_dep[i] {
                indeg[i] += 1;
                children[prev].push(i);
            }
        }

        let mut ready_time = vec![0.0f64; n];
        let mut heap = BinaryHeap::new();
        for (i, &deg) in indeg.iter().enumerate() {
            if deg == 0 {
                heap.push(Ready { time: 0.0, id: i });
            }
        }

        let mut resource_free: BTreeMap<Resource, f64> = BTreeMap::new();
        let mut op_spans = vec![(0.0, 0.0); n];
        let mut link_busy: BTreeMap<(GpuId, GpuId, LinkClass), f64> = BTreeMap::new();
        let mut link_bytes: BTreeMap<(GpuId, GpuId, LinkClass), u64> = BTreeMap::new();
        let mut total = 0.0f64;
        let mut done = 0usize;

        while !heap.is_empty() {
            let mut pulled: Vec<Ready> = Vec::with_capacity(CANDIDATES);
            while pulled.len() < CANDIDATES {
                match heap.pop() {
                    Some(r) => pulled.push(r),
                    None => break,
                }
            }
            let mut best_idx = 0usize;
            let mut best_start = f64::INFINITY;
            let mut best_key = usize::MAX;
            for (idx, cand) in pulled.iter().enumerate() {
                let op = &ops[cand.id];
                let resources = self.op_resources(&op.kind, op.stream)?;
                let mut start = cand.time;
                for r in &resources {
                    start = start.max(resource_free.get(r).copied().unwrap_or(0.0));
                }
                if start < best_start - 1e-9 || (start < best_start + 1e-9 && cand.id < best_key) {
                    best_start = start;
                    best_idx = idx;
                    best_key = cand.id;
                }
            }
            let chosen = pulled.swap_remove(best_idx);
            for other in pulled {
                heap.push(other);
            }
            let Ready { time, id } = chosen;
            let op = &ops[id];
            let duration = self.op_duration(&op.kind)?;
            let resources = self.op_resources(&op.kind, op.stream)?;
            let mut start = time;
            for r in &resources {
                start = start.max(resource_free.get(r).copied().unwrap_or(0.0));
            }
            let end = start + duration;
            for r in &resources {
                resource_free.insert(*r, end);
            }
            op_spans[id] = (start, end);
            total = total.max(end);
            if let OpKind::Copy {
                src, dst, class, ..
            } = op.kind
            {
                *link_busy.entry((src, dst, class)).or_insert(0.0) += duration;
                *link_bytes.entry((src, dst, class)).or_insert(0) += op.kind.payload_bytes();
            }
            done += 1;
            for &c in &children[id] {
                ready_time[c] = ready_time[c].max(end);
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    heap.push(Ready {
                        time: ready_time[c],
                        id: c,
                    });
                }
            }
        }

        if done != n {
            return Err(SimError::InvalidProgram(
                "dependency cycle: not every op became ready".to_string(),
            ));
        }

        Ok(RunReport {
            total_us: total,
            op_spans,
            link_busy_us: link_busy,
            link_bytes,
        })
    }
}

/// A streaming execution session: multiple in-flight programs sharing one
/// simulated machine.
///
/// Admit each program with its issue timestamp, then [`Session::run`] (or
/// [`Session::run_with_scratch`] in hot loops) schedules every op of every
/// program over one shared interned resource table, so concurrent programs
/// contend for links, ports, NICs and compute engines exactly like the
/// streams of a single program do. The module docs spell out the full
/// admission / link-sharing / determinism contract; the headline guarantees
/// are FIFO serialisation at op granularity on shared resources and spans
/// that are a pure function of the admitted `(program, issue)` pairs and
/// their admission order.
#[derive(Debug, Clone)]
pub struct Session<'a> {
    sim: &'a Simulator,
    entries: Vec<(Program, f64)>,
}

impl Session<'_> {
    /// Admits `program` into the session with issue timestamp `issue_us`
    /// (microseconds; must be finite and non-negative) and returns the
    /// program's index into [`SessionReport::programs`].
    pub fn admit(&mut self, program: Program, issue_us: f64) -> usize {
        self.entries.push((program, issue_us));
        self.entries.len() - 1
    }

    /// Number of admitted programs.
    pub fn num_programs(&self) -> usize {
        self.entries.len()
    }

    /// Whether no program has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The admitted `(program, issue_us)` entries, in admission order.
    pub fn programs(&self) -> &[(Program, f64)] {
        &self.entries
    }

    /// Executes every admitted program, allocating a fresh scratch. Loops
    /// that run many sessions should hold an [`EngineScratch`] and call
    /// [`Session::run_with_scratch`].
    ///
    /// # Errors
    /// Fails under the same conditions as [`Simulator::run`] on any admitted
    /// program, or if an issue timestamp is negative, NaN or infinite.
    pub fn run(&self) -> Result<SessionReport, SimError> {
        self.run_with_scratch(&mut EngineScratch::new())
    }

    /// Executes every admitted program over reusable `scratch` buffers.
    ///
    /// # Errors
    /// Same conditions as [`Session::run`].
    pub fn run_with_scratch(&self, scratch: &mut EngineScratch) -> Result<SessionReport, SimError> {
        let refs: Vec<(&Program, f64)> = self.entries.iter().map(|(p, t)| (p, *t)).collect();
        self.sim.run_session(&refs, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, Segment};
    use blink_topology::presets::{dgx1v, dgx2, multi_server, ServerKind};

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn single_copy_time_matches_bandwidth() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        // GPU0 -> GPU3 is a doubled lane: 46 GB/s
        b.copy(
            GpuId(0),
            GpuId(3),
            mb(100),
            LinkClass::NvLink,
            s,
            vec![],
            "",
        );
        let report = sim.run(&b.build().unwrap()).unwrap();
        let expect = 100.0 * 1024.0 * 1024.0 / 46_000.0;
        assert!(
            (report.total_us - expect).abs() < 10.0,
            "total {}",
            report.total_us
        );
        assert!(report.algorithmic_bandwidth_gbps(mb(100)) > 44.0);
        assert_eq!(report.links_used(), 1);
    }

    #[test]
    fn missing_link_is_an_error() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        // no NVLink between GPU 1 and GPU 4
        b.copy(GpuId(1), GpuId(4), 1024, LinkClass::NvLink, s, vec![], "");
        let err = sim.run(&b.build().unwrap()).unwrap_err();
        assert!(matches!(err, SimError::MissingLink { .. }));
    }

    #[test]
    fn same_stream_ops_serialize_and_different_streams_overlap() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo.clone());
        // same stream: two copies on different links still serialize
        // GPU0->GPU1 and GPU5->GPU7 are both single NVLink lanes (23 GB/s)
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s, vec![], "");
        b.copy(GpuId(5), GpuId(7), mb(50), LinkClass::NvLink, s, vec![], "");
        let serial = sim.run(&b.build().unwrap()).unwrap().total_us;

        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        b.copy(
            GpuId(0),
            GpuId(1),
            mb(50),
            LinkClass::NvLink,
            s0,
            vec![],
            "",
        );
        b.copy(
            GpuId(5),
            GpuId(7),
            mb(50),
            LinkClass::NvLink,
            s1,
            vec![],
            "",
        );
        let parallel = sim.run(&b.build().unwrap()).unwrap().total_us;
        assert!(
            parallel < 0.6 * serial,
            "parallel {parallel} vs serial {serial}"
        );
    }

    #[test]
    fn shared_link_serializes_even_across_streams() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        b.copy(
            GpuId(0),
            GpuId(1),
            mb(50),
            LinkClass::NvLink,
            s0,
            vec![],
            "",
        );
        b.copy(
            GpuId(0),
            GpuId(1),
            mb(50),
            LinkClass::NvLink,
            s1,
            vec![],
            "",
        );
        let report = sim.run(&b.build().unwrap()).unwrap();
        let one = 50.0 * 1024.0 * 1024.0 / 23_000.0;
        assert!(report.total_us > 1.9 * one, "total {}", report.total_us);
        assert!(report.link_utilization(GpuId(0), GpuId(1), LinkClass::NvLink) > 0.95);
    }

    #[test]
    fn dependencies_are_respected() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        let first = b.copy(
            GpuId(0),
            GpuId(1),
            mb(10),
            LinkClass::NvLink,
            s0,
            vec![],
            "",
        );
        b.copy(
            GpuId(1),
            GpuId(3),
            mb(10),
            LinkClass::NvLink,
            s1,
            vec![first],
            "",
        );
        let report = sim.run(&b.build().unwrap()).unwrap();
        let (s_a, e_a) = report.op_spans[0];
        let (s_b, _) = report.op_spans[1];
        assert!(s_a < e_a);
        assert!(s_b >= e_a);
    }

    #[test]
    fn dgx2_egress_port_caps_aggregate_bandwidth() {
        // One GPU sending to 15 peers "simultaneously" is limited by its
        // injection capacity (138 GB/s), not 15 × 138.
        let topo = dgx2();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let per_peer = mb(64);
        for dst in 1..16 {
            let s = b.new_stream();
            b.copy(
                GpuId(0),
                GpuId(dst),
                per_peer,
                LinkClass::NvLink,
                s,
                vec![],
                "",
            );
        }
        let report = sim.run(&b.build().unwrap()).unwrap();
        let total_bytes = per_peer * 15;
        let agg = report.algorithmic_bandwidth_gbps(total_bytes);
        assert!(agg < 140.0, "aggregate {agg} should be capped near 138");
        assert!(agg > 110.0, "aggregate {agg} should approach the port cap");
    }

    #[test]
    fn network_copies_share_the_server_nic() {
        let topo = multi_server(2, ServerKind::Dgx1V, 5.0);
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        for (src, dst) in [(0usize, 8usize), (1, 9), (2, 10), (3, 11)] {
            let s = b.new_stream();
            b.copy(
                GpuId(src),
                GpuId(dst),
                mb(10),
                LinkClass::Network,
                s,
                vec![],
                "",
            );
        }
        let report = sim.run(&b.build().unwrap()).unwrap();
        // 40 MB over a shared 5 GB/s NIC ≈ 8.4 ms, not 2.1 ms
        let agg = report.algorithmic_bandwidth_gbps(mb(40));
        assert!(agg < 5.5, "aggregate {agg} must be bounded by the NIC");
    }

    #[test]
    fn peer_access_toggle_costs_scale_with_gpu_count() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.toggle_peer_access(8, s, vec![], "dpa");
        let report = sim.run(&b.build().unwrap()).unwrap();
        let expect = 8.0 * sim.params().dpa_per_gpu_us;
        assert!((report.total_us - expect).abs() < 1e-6);
    }

    #[test]
    fn chunking_reduces_pipeline_latency() {
        // Figure 11: forwarding along a chain with chunking overlaps hops.
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo.clone());
        let chain = [GpuId(0), GpuId(1), GpuId(2), GpuId(3)];
        let total = mb(64);

        let build = |chunks: u64| {
            let mut b = ProgramBuilder::new();
            let per = total / chunks;
            let mut streams = Vec::new();
            for _ in 0..chain.len() - 1 {
                streams.push(b.new_stream());
            }
            for c in 0..chunks {
                let mut arrival = None;
                for hop in 0..chain.len() - 1 {
                    let deps = arrival.map(|a| vec![a]).unwrap_or_default();
                    let id = b.copy(
                        chain[hop],
                        chain[hop + 1],
                        per,
                        LinkClass::NvLink,
                        streams[hop],
                        deps,
                        format!("c{c}h{hop}"),
                    );
                    arrival = Some(id);
                }
            }
            b.build().unwrap()
        };

        let one_chunk = sim.run(&build(1)).unwrap().total_us;
        let many_chunks = sim.run(&build(16)).unwrap().total_us;
        // With chunking the slowest hop dominates instead of the sum of hops
        // (Figure 11); on this chain (23 + 46 + 46 GB/s hops) that is a ~45%
        // reduction.
        assert!(
            many_chunks < 0.62 * one_chunk,
            "chunked {many_chunks} vs monolithic {one_chunk}"
        );
    }

    #[test]
    fn empty_program_takes_no_time() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let report = sim.run(&ProgramBuilder::new().build().unwrap()).unwrap();
        assert_eq!(report.total_us, 0.0);
        assert_eq!(report.links_used(), 0);
        assert_eq!(report.algorithmic_bandwidth_gbps(1024), 0.0);
    }

    #[test]
    fn a_segmented_copy_times_the_summed_bytes_with_one_launch() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        // one 3-segment copy over the 46 GB/s doubled lane...
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy_segs(
            GpuId(0),
            GpuId(3),
            vec![
                Segment::new(0, mb(10)),
                Segment::new(mb(30), mb(10)),
                Segment::new(mb(90), mb(10)),
            ],
            LinkClass::NvLink,
            s,
            vec![],
            "seg",
        );
        let segged = sim.run(&b.build().unwrap()).unwrap().total_us;
        // ...vs one contiguous copy of the same total volume
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(3), mb(30), LinkClass::NvLink, s, vec![], "");
        let contiguous = sim.run(&b.build().unwrap()).unwrap().total_us;
        assert_eq!(
            segged.to_bits(),
            contiguous.to_bits(),
            "segment layout must not change the timing of equal volume"
        );
    }

    /// A program exercising every resource kind: NVLink copies with port
    /// caps, PCIe, cross-server network copies through NICs, reductions,
    /// compute kernels, peer-access toggles, segmented payloads, shared
    /// streams and cross-stream deps.
    fn mixed_program() -> (Topology, Program) {
        let topo = multi_server(2, ServerKind::Dgx1V, 5.0);
        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        let s2 = b.new_stream();
        let a = b.copy(
            GpuId(0),
            GpuId(1),
            mb(13),
            LinkClass::NvLink,
            s0,
            vec![],
            "a",
        );
        let r = b.reduce(GpuId(1), mb(13), s0, vec![a], "r");
        b.copy_segs(
            GpuId(1),
            GpuId(2),
            vec![Segment::new(0, mb(5)), Segment::new(mb(8), mb(5))],
            LinkClass::NvLink,
            s1,
            vec![r],
            "segs",
        );
        b.copy(
            GpuId(0),
            GpuId(8),
            mb(7),
            LinkClass::Network,
            s2,
            vec![],
            "net",
        );
        b.copy(
            GpuId(3),
            GpuId(0),
            mb(3),
            LinkClass::Pcie,
            s2,
            vec![],
            "pcie",
        );
        b.compute(GpuId(2), 42.0, s1, vec![], "k");
        b.toggle_peer_access(4, s0, vec![], "dpa");
        // a fan of independent copies inside the fully-connected quad
        // {0,1,2,3}, so the candidate scan has real packing work to do
        for i in 0..32usize {
            let s = b.new_stream();
            b.copy(
                GpuId(i % 4),
                GpuId((i + 1) % 4),
                mb(1) + i as u64,
                LinkClass::NvLink,
                s,
                vec![],
                format!("fan{i}"),
            );
        }
        (topo, b.build().unwrap())
    }

    fn assert_reports_bit_identical(a: &RunReport, b: &RunReport) {
        assert_eq!(a.total_us.to_bits(), b.total_us.to_bits());
        assert_eq!(a.op_spans.len(), b.op_spans.len());
        for (i, (x, y)) in a.op_spans.iter().zip(&b.op_spans).enumerate() {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "op {i} start");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "op {i} end");
        }
        assert_eq!(a.link_bytes, b.link_bytes);
        assert_eq!(
            a.link_busy_us.len(),
            b.link_busy_us.len(),
            "link busy key sets differ"
        );
        for ((ka, va), (kb, vb)) in a.link_busy_us.iter().zip(&b.link_busy_us) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "busy time for {ka:?}");
        }
    }

    #[test]
    fn interned_fast_path_is_bit_identical_to_the_reference() {
        let (topo, program) = mixed_program();
        let sim = Simulator::with_defaults(topo);
        let reference = sim.run_reference(&program).unwrap();
        let fast = sim.run(&program).unwrap();
        assert_reports_bit_identical(&reference, &fast);
    }

    #[test]
    fn the_window_holds_the_earliest_ready_ops_in_order() {
        // Random admissions (with ready-time ties) and removals through the
        // scheduler's two window operations; after every step the window
        // must be exactly the CANDIDATES smallest ready entries in (time, id)
        // order, which is what the reference pops off its heap.
        let (mut window, mut heap) = (Vec::new(), BinaryHeap::new());
        let mut ready: Vec<Ready> = Vec::new();
        let mut state = 0x5eed_u64;
        for id in 0..1500usize {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (state >> 33) as usize;
            if !r.is_multiple_of(3) || window.is_empty() {
                let entry = Ready {
                    time: (r % 97) as f64 * 0.5,
                    id,
                };
                admit_ready(&mut window, &mut heap, entry.clone());
                ready.push(entry);
            } else {
                let idx = r % window.len();
                let gone = take_candidate(&mut window, &mut heap, idx);
                ready.retain(|e| e.id != gone.id);
            }
            // `Ready`'s ordering is reversed for the min-heap
            ready.sort_by(|a, b| b.cmp(a));
            let expect: Vec<usize> = ready.iter().take(CANDIDATES).map(|e| e.id).collect();
            let got: Vec<usize> = window.iter().map(|e| e.id).collect();
            assert_eq!(got, expect, "window after step {id}");
            assert_eq!(window.len() + heap.len(), ready.len());
        }
    }

    #[test]
    fn a_segmented_copy_charges_per_segment_overhead_when_calibrated() {
        let params = SimParams {
            per_segment_overhead_us: 0.5,
            ..SimParams::default()
        };
        let sim = Simulator::new(dgx1v(), params);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy_segs(
            GpuId(0),
            GpuId(3),
            vec![
                Segment::new(0, mb(10)),
                Segment::new(mb(30), mb(10)),
                Segment::new(mb(90), mb(10)),
            ],
            LinkClass::NvLink,
            s,
            vec![],
            "seg",
        );
        let prog = b.build().unwrap();
        let segged = sim.run(&prog).unwrap().total_us;
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(3), mb(30), LinkClass::NvLink, s, vec![], "");
        let contiguous = sim.run(&b.build().unwrap()).unwrap().total_us;
        // three ranges = two extra descriptors beyond the first
        assert!(
            (segged - (contiguous + 1.0)).abs() < 1e-9,
            "segged {segged} vs contiguous {contiguous}"
        );
        // the reference scheduler charges the identical duration
        let reference = sim.run_reference(&prog).unwrap().total_us;
        assert_eq!(segged.to_bits(), reference.to_bits());
    }

    #[test]
    fn a_single_program_session_is_bit_identical_to_the_single_program_path() {
        let (topo, program) = mixed_program();
        let sim = Simulator::with_defaults(topo);
        let single = sim.run(&program).unwrap();
        let mut session = sim.session();
        session.admit(program, 0.0);
        let report = session.run().unwrap();
        assert_eq!(report.programs.len(), 1);
        let prog = &report.programs[0];
        assert_eq!(report.total_us.to_bits(), single.total_us.to_bits());
        assert_eq!(prog.op_spans.len(), single.op_spans.len());
        for (i, (x, y)) in prog.op_spans.iter().zip(&single.op_spans).enumerate() {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "op {i} start");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "op {i} end");
        }
        assert_eq!(report.link_bytes, single.link_bytes);
        assert_eq!(prog.issue_us, 0.0);
        assert_eq!(prog.end_us.to_bits(), single.total_us.to_bits());
    }

    #[test]
    fn concurrent_programs_fifo_serialize_on_a_shared_link() {
        let sim = Simulator::with_defaults(dgx1v());
        let one_copy = || {
            let mut b = ProgramBuilder::new();
            let s = b.new_stream();
            b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s, vec![], "");
            b.build().unwrap()
        };
        let alone = sim.run(&one_copy()).unwrap().total_us;
        let mut session = sim.session();
        session.admit(one_copy(), 0.0);
        session.admit(one_copy(), 0.0);
        let report = session.run().unwrap();
        // same directed link: the second program queues behind the first
        // (admission order breaks the tie), so the session takes ~2x
        assert!(
            report.total_us > 1.9 * alone,
            "total {} vs alone {alone}",
            report.total_us
        );
        let (a, b) = (&report.programs[0], &report.programs[1]);
        assert!(a.end_us <= b.start_us + 1e-9, "admission order broke");
        assert_eq!(a.queue_delay_us(), 0.0);
        assert!(b.queue_delay_us() > 0.9 * alone);
        // both programs' traffic lands on the one shared link
        assert_eq!(
            report.link_bytes[&(GpuId(0), GpuId(1), LinkClass::NvLink)],
            2 * mb(50)
        );
    }

    #[test]
    fn concurrent_programs_on_disjoint_links_overlap() {
        let sim = Simulator::with_defaults(dgx1v());
        let copy_between = |src: usize, dst: usize| {
            let mut b = ProgramBuilder::new();
            let s = b.new_stream();
            b.copy(
                GpuId(src),
                GpuId(dst),
                mb(50),
                LinkClass::NvLink,
                s,
                vec![],
                "",
            );
            b.build().unwrap()
        };
        let alone = sim.run(&copy_between(0, 1)).unwrap().total_us;
        let mut session = sim.session();
        session.admit(copy_between(0, 1), 0.0);
        session.admit(copy_between(5, 7), 0.0);
        let report = session.run().unwrap();
        assert!(
            report.total_us < 1.2 * alone,
            "disjoint programs must overlap: {} vs {alone}",
            report.total_us
        );
    }

    #[test]
    fn issue_timestamps_floor_program_starts() {
        let sim = Simulator::with_defaults(dgx1v());
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(1), mb(10), LinkClass::NvLink, s, vec![], "");
        let prog = b.build().unwrap();
        let alone = sim.run(&prog).unwrap().total_us;
        let mut session = sim.session();
        session.admit(prog, 1000.0);
        let report = session.run().unwrap();
        let p = &report.programs[0];
        assert_eq!(p.start_us, 1000.0);
        assert!((p.elapsed_us() - alone).abs() < 1e-9);
        assert!((report.total_us - (1000.0 + alone)).abs() < 1e-9);
    }

    #[test]
    fn bad_issue_timestamps_are_rejected() {
        let sim = Simulator::with_defaults(dgx1v());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut session = sim.session();
            session.admit(ProgramBuilder::new().build().unwrap(), bad);
            assert!(matches!(
                session.run().unwrap_err(),
                SimError::InvalidProgram(_)
            ));
        }
    }

    #[test]
    fn a_dirty_scratch_changes_nothing_for_sessions() {
        let (topo, multi_prog) = mixed_program();
        let sim = Simulator::with_defaults(topo);
        let mut scratch = EngineScratch::new();
        // dirty the scratch with single-program runs first
        sim.run_with_scratch(&multi_prog, &mut scratch).unwrap();
        let mut session = sim.session();
        session.admit(multi_prog.clone(), 0.0);
        session.admit(multi_prog, 7.5);
        let dirty = session.run_with_scratch(&mut scratch).unwrap();
        let fresh = session.run().unwrap();
        assert_eq!(dirty.total_us.to_bits(), fresh.total_us.to_bits());
        for (a, b) in dirty.programs.iter().zip(&fresh.programs) {
            assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
            assert_eq!(a.end_us.to_bits(), b.end_us.to_bits());
            for (x, y) in a.op_spans.iter().zip(&b.op_spans) {
                assert_eq!(x.0.to_bits(), y.0.to_bits());
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn a_dirty_scratch_changes_nothing() {
        // run three very different programs through ONE scratch and compare
        // each against a fresh-scratch run — buffers, not state
        let (multi_topo, multi_prog) = mixed_program();
        let mut small = ProgramBuilder::new();
        let s = small.new_stream();
        small.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s, vec![], "");
        let small_prog = small.build().unwrap();
        let empty_prog = ProgramBuilder::new().build().unwrap();

        let mut scratch = EngineScratch::new();
        let cases: Vec<(Simulator, Program)> = vec![
            (Simulator::with_defaults(multi_topo.clone()), multi_prog),
            (Simulator::with_defaults(dgx1v()), small_prog),
            (Simulator::with_defaults(dgx2()), empty_prog),
        ];
        for _ in 0..2 {
            for (sim, prog) in &cases {
                let dirty = sim.run_with_scratch(prog, &mut scratch).unwrap();
                let fresh = sim
                    .run_with_scratch(prog, &mut EngineScratch::new())
                    .unwrap();
                assert_reports_bit_identical(&dirty, &fresh);
            }
        }
    }

    #[test]
    fn compiled_programs_replay_bit_identically_through_a_dirty_scratch() {
        let (topo, program) = mixed_program();
        let sim = Simulator::with_defaults(topo);
        let mut small = ProgramBuilder::new();
        let s = small.new_stream();
        small.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s, vec![], "");
        let small = small.build().unwrap();
        let compiled = sim.compile(&program).unwrap();
        let small_compiled = sim.compile(&small).unwrap();
        assert_eq!(compiled.len(), program.len());
        let reference = sim.run_reference(&program).unwrap();
        let small_reference = sim.run_reference(&small).unwrap();
        let mut scratch = EngineScratch::new();
        for _ in 0..3 {
            let replay = sim.run_compiled(&compiled, &mut scratch).unwrap();
            assert_reports_bit_identical(&replay, &reference);
            let replay = sim.run_compiled(&small_compiled, &mut scratch).unwrap();
            assert_reports_bit_identical(&replay, &small_reference);
            sim.run_with_scratch(&program, &mut scratch).unwrap();
        }
        // a compiled session equals the plain session over the same programs
        let mut session = sim.session();
        session.admit(program.clone(), 3.0);
        session.admit(small.clone(), 0.0);
        session.admit(program, 0.5);
        let plain = session.run().unwrap();
        let entries = [(&compiled, 3.0), (&small_compiled, 0.0), (&compiled, 0.5)];
        let remapped = sim.run_compiled_session(&entries, &mut scratch).unwrap();
        assert_eq!(plain.total_us.to_bits(), remapped.total_us.to_bits());
        for (a, b) in plain.programs.iter().zip(&remapped.programs) {
            assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
            assert_eq!(a.end_us.to_bits(), b.end_us.to_bits());
            assert_eq!(format!("{:?}", a.op_spans), format!("{:?}", b.op_spans));
        }
        assert_eq!(plain.link_bytes, remapped.link_bytes);
        assert_eq!(
            format!("{:?}", plain.link_busy_us),
            format!("{:?}", remapped.link_busy_us)
        );
    }

    #[test]
    fn a_compiled_program_runs_only_on_the_simulator_it_was_compiled_for() {
        let (topo, program) = mixed_program();
        let sim = Simulator::with_defaults(topo.clone());
        let compiled = sim.compile(&program).unwrap();
        let mut scratch = EngineScratch::new();
        // a separately built simulator over an equal machine accepts it
        let twin = Simulator::with_defaults(topo.clone());
        let reference = sim.run_reference(&program).unwrap();
        assert_reports_bit_identical(
            &twin.run_compiled(&compiled, &mut scratch).unwrap(),
            &reference,
        );
        let other_params = Simulator::new(
            topo,
            SimParams {
                link_latency_us: 2.0,
                ..SimParams::default()
            },
        );
        let other_topology = Simulator::with_defaults(multi_server(2, ServerKind::Dgx1V, 10.0));
        for other in [&other_params, &other_topology] {
            assert_eq!(
                other.run_compiled(&compiled, &mut scratch).unwrap_err(),
                SimError::ForeignCompilation
            );
            let session = other.run_compiled_session(&[(&compiled, 0.0)], &mut scratch);
            assert_eq!(session.unwrap_err(), SimError::ForeignCompilation);
        }
        // compiling checks what running checks
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(1), GpuId(4), 1024, LinkClass::NvLink, s, vec![], "");
        let missing = b.build().unwrap();
        let dgx1 = Simulator::with_defaults(dgx1v());
        assert!(matches!(
            dgx1.compile(&missing).unwrap_err(),
            SimError::MissingLink { .. }
        ));
        let bad_issue = sim.run_compiled_session(&[(&compiled, f64::NAN)], &mut scratch);
        assert!(matches!(
            bad_issue.unwrap_err(),
            SimError::InvalidProgram(_)
        ));
    }
}
