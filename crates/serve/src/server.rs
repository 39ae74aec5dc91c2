//! The live session runtime: the part of the paper's Java edge server
//! this repo reproduces in Rust.
//!
//! A [`Session`] owns one [`SlotEngine`] and a registry of connected
//! users. Every 15 ms slot it runs the same control loop the system
//! simulator models, but against real transports:
//!
//! 1. **ingest** — drain every connection's upstream queue: handshakes
//!    join users, poses feed the per-user predictor (and score earlier
//!    predictions), ACKs update the delivery ledger, bandwidth samples
//!    feed the EMA estimator.
//! 2. **plan** — stage the per-slot nonlinear knapsack into the engine
//!    (ledger-suppressed rates, estimated-delay and variance-penalised
//!    values) and solve it with the density/value greedy.
//! 3. **transmit** — send each user its `Assignment` with the manifest
//!    of tiles this slot actually transmits. Slow clients (saturated or
//!    stalled outbound queues) are *degraded* to the lowest quality
//!    instead of being allowed to stall the tick.
//!
//! The ledger only marks tiles delivered when the client ACKs them —
//! exactly the retransmission-suppression protocol of Section V.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cvr_content::cache::{DeliveryLedger, UndeliveredSums};
use cvr_content::grid::CellId;
use cvr_content::id::VideoId;
use cvr_content::library::ContentLibrary;
use cvr_content::plane::{RatePlane, SharedFovCache, DEFAULT_PLANE_CELLS};
use cvr_content::tile::{TileId, TileSet};
use cvr_core::delay::{DelayModel, Mm1Delay, DELAY_CAP_SLOTS, PIPELINE_SLOTS};
use cvr_core::engine::{SlotEngine, StageClock};
use cvr_core::objective::QoeParams;
use cvr_core::qoe::{UserQoeAccumulator, UserQoeSummary};
use cvr_core::quality::QualityLevel;
use cvr_core::stage::{sanitize_rates, stage_rates_values_with, CONTROL_OVERHEAD_MBPS};
use cvr_lookahead::{
    fov_tile_overlap, slot_credit, AnticipatoryDegrade, DegradeConfig, LookaheadConfig, Prefetcher,
};
use cvr_mcast::{content_fingerprint, stage_group, GroupKey, GroupMember, GroupTracker};
use cvr_motion::accuracy::DeltaEstimator;
use cvr_motion::pose::Pose;
use cvr_motion::predict::LinearPredictor;
use cvr_net::estimate::EmaEstimator;
use cvr_net::multilink::{FailoverPolicy, LinkId};
use cvr_obs::registry::{CounterId, GaugeId, HistogramId};
use cvr_obs::{latency_bounds_ns, Registry, StageStats, TraceEvent, Tracer};

use crate::protocol::{ClientMessage, ServerMessage, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
use crate::ticker::SlotTicker;
use crate::transport::{SendStatus, ServerTransport};

/// One-way propagation delay of the wireless hop, seconds (mirrors the
/// system simulator's constant).
const PROPAGATION_S: f64 = 0.002;

/// Most prediction records kept per user awaiting their scoring pose.
const MAX_PENDING_PREDICTIONS: usize = 64;

/// Slots a connection may spend in the handshake before it is closed
/// (3 s at the paper's 15 ms slot). Only slots the session runs count.
const HANDSHAKE_DEADLINE_SLOTS: u64 = 200;

/// Most connections awaiting their `Hello` at once; further connections
/// are refused. Four times the default `max_users`.
const MAX_PENDING_CONNECTIONS: usize = 64;

/// Configuration of a live session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Slot period (the paper's Δt; 15 ms ≈ a 60 FPS budget with decode
    /// margin).
    pub slot_duration: Duration,
    /// Server uplink limit, Mbps.
    pub server_total_mbps: f64,
    /// Per-user bandwidth assumed before the first sample arrives, Mbps.
    pub default_bandwidth_mbps: f64,
    /// QoE weights (α, β).
    pub params: QoeParams,
    /// EMA weight of the per-user bandwidth estimator.
    pub ema_weight: f64,
    /// EMA weight of the per-link estimators fed by bonded clients'
    /// `LinkSample`s. Deliberately faster than `ema_weight`: the failover
    /// decision must see an outage within a handful of samples, while the
    /// planning estimate stays smooth.
    pub link_ema_weight: f64,
    /// Failover/recovery policy run over the per-link estimates — the
    /// same [`FailoverPolicy`] the simulator's bonded links use.
    pub failover: FailoverPolicy,
    /// When a bonded user's planning estimate falls below this floor
    /// (Mbps), the user is pinned to the lowest quality until the
    /// estimate recovers past twice the floor — the bandwidth analogue of
    /// the slow-client backpressure degrade.
    pub degrade_floor_mbps: f64,
    /// Per-connection outbound queue capacity, frames.
    pub outbound_queue_frames: usize,
    /// Most users the session admits; later Hellos are refused.
    pub max_users: usize,
    /// Enables shared-FoV multicast: co-located v3 users whose
    /// undelivered tile state is byte-identical share one staged engine
    /// row and receive one fanned-out `GroupAssign` frame. Off by
    /// default; when off the session plans and transmits exactly the
    /// unicast path. v2 clients are always served unicast either way.
    pub multicast: bool,
    /// Slots a multicast group key keeps its id after it was last seen
    /// (FoV-jitter hysteresis; membership itself is re-derived every
    /// slot).
    pub mcast_hysteresis_slots: u64,
    /// Lookahead horizon H in slots. `1` is the paper's myopic per-slot
    /// planner — no lookahead code runs at all, so the session is
    /// bit-identical to the pre-lookahead runtime. `H > 1` turns on the
    /// `cvr-lookahead` subsystem: per-user anticipatory degrade clamps
    /// the planning bandwidth estimate ahead of fitted-trend dips, budget
    /// slack prefetches predicted future-cell tiles (they ride the
    /// outgoing assignment manifests, so the ledger charges them only
    /// when the client ACKs — unlike the simulator, which models the
    /// push as delivered), and `cvr_lookahead_fov_overlap{h="…"}`
    /// histograms score prediction accuracy per horizon step.
    pub horizon: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slot_duration: Duration::from_millis(15),
            server_total_mbps: 400.0,
            default_bandwidth_mbps: 50.0,
            params: QoeParams::system_default(),
            ema_weight: 0.05,
            link_ema_weight: 0.3,
            failover: FailoverPolicy::default(),
            degrade_floor_mbps: 2.0,
            outbound_queue_frames: 64,
            max_users: 16,
            multicast: false,
            mcast_hysteresis_slots: 8,
            horizon: 1,
        }
    }
}

/// The session's metric series and tracer: one registry owned by the
/// session (no locks — live exposition reads rendered snapshots, see
/// [`crate::expose::MetricsExporter`]), with handles resolved once at
/// construction so every hot-path update is a single indexed add.
struct SessionObs {
    registry: Registry,
    tracer: Tracer,
    h_ingest: HistogramId,
    h_build: HistogramId,
    h_density: HistogramId,
    h_value: HistogramId,
    h_transmit: HistogramId,
    h_tick: HistogramId,
    c_ticks: CounterId,
    c_on_time: CounterId,
    c_overruns: CounterId,
    c_joins: CounterId,
    c_leaves: CounterId,
    c_proto: CounterId,
    c_dropped: CounterId,
    c_degraded: CounterId,
    c_link_switches: CounterId,
    c_handshake_timeouts: CounterId,
    c_pending_refused: CounterId,
    g_clients: GaugeId,
    g_queue_depth: GaugeId,
    g_slot: GaugeId,
    g_mcast_groups: GaugeId,
    /// Entry `h − 1` is the `cvr_lookahead_fov_overlap{h="h"}` histogram
    /// for lookahead step `h ∈ 1..horizon`; empty at `horizon = 1`.
    h_overlap: Vec<HistogramId>,
}

impl SessionObs {
    fn new(horizon: usize) -> Self {
        let mut r = Registry::new();
        let bounds = latency_bounds_ns();
        let stage = |r: &mut Registry, name: &str| {
            r.histogram(
                "cvr_slot_stage_ns",
                &format!("stage=\"{name}\""),
                "Per-slot latency of each pipeline stage, nanoseconds",
                &bounds,
            )
        };
        let h_ingest = stage(&mut r, "ingest");
        let h_build = stage(&mut r, "build");
        let h_density = stage(&mut r, "density");
        let h_value = stage(&mut r, "value");
        let h_transmit = stage(&mut r, "transmit");
        let h_tick = stage(&mut r, "tick");
        let c_ticks = r.counter("cvr_ticks_total", "", "Slots executed");
        let c_on_time = r.counter("cvr_on_time_ticks_total", "", "Slots that met the deadline");
        let c_overruns = r.counter(
            "cvr_tick_overruns_total",
            "",
            "Slots whose work ran past the period",
        );
        let c_joins = r.counter("cvr_session_joins_total", "", "Users admitted");
        let c_leaves = r.counter("cvr_session_leaves_total", "", "Users departed");
        let c_proto = r.counter(
            "cvr_protocol_errors_total",
            "",
            "Corrupt frames, version mismatches, out-of-order handshakes",
        );
        let c_dropped = r.counter(
            "cvr_frames_dropped_total",
            "",
            "Frames discarded by outbound backpressure",
        );
        let c_degraded = r.counter(
            "cvr_degraded_transitions_total",
            "",
            "Times a user entered the degraded state",
        );
        let c_link_switches = r.counter(
            "cvr_link_switches_total",
            "",
            "Bonded-link failovers across all users",
        );
        let c_handshake_timeouts = r.counter(
            "cvr_handshake_timeouts_total",
            "",
            "Connections closed for not completing the handshake in time",
        );
        let c_pending_refused = r.counter(
            "cvr_pending_refused_total",
            "",
            "Connections refused because the handshake queue was full",
        );
        let g_clients = r.gauge("cvr_session_clients", "", "Users currently joined");
        let g_queue_depth = r.gauge(
            "cvr_outbound_queue_depth_max",
            "",
            "Deepest outbound queue observed on any connection",
        );
        let g_slot = r.gauge("cvr_session_slot", "", "Current slot index");
        let g_mcast_groups = r.gauge(
            "cvr_mcast_groups",
            "",
            "Multicast groups (two or more members) formed in the last planned slot",
        );
        let overlap_bounds: Vec<u64> = (0..=TileId::COUNT as u64).collect();
        let h_overlap: Vec<HistogramId> = (1..horizon.max(1))
            .map(|h| {
                r.histogram(
                    "cvr_lookahead_fov_overlap",
                    &format!("h=\"{h}\""),
                    "Predicted-vs-actual FoV tile overlap (tiles shared, 0..=4) \
                     per lookahead horizon step",
                    &overlap_bounds,
                )
            })
            .collect();
        SessionObs {
            registry: r,
            tracer: Tracer::disabled(),
            h_ingest,
            h_build,
            h_density,
            h_value,
            h_transmit,
            h_tick,
            c_ticks,
            c_on_time,
            c_overruns,
            c_joins,
            c_leaves,
            c_proto,
            c_dropped,
            c_degraded,
            c_link_switches,
            c_handshake_timeouts,
            c_pending_refused,
            g_clients,
            g_queue_depth,
            g_slot,
            g_mcast_groups,
            h_overlap,
        }
    }

    fn stage(&mut self, id: HistogramId, slot: u64, name: &'static str, ns: u64) {
        self.registry.observe(id, ns);
        self.tracer.record(TraceEvent::Stage {
            slot,
            stage: name,
            ns,
        });
    }
}

/// A prediction awaiting the actual pose that scores it.
#[derive(Debug, Clone, Copy)]
struct PredictionRecord {
    /// The client pose sequence this prediction targeted.
    target_seq: u64,
    predicted: Pose,
    quality: QualityLevel,
    delay_slots: f64,
}

/// A lookahead FoV prediction awaiting the pose that scores its tile
/// overlap (the `cvr_lookahead_fov_overlap{h="…"}` series).
#[derive(Debug, Clone, Copy)]
struct FovPredictionRecord {
    /// The client pose sequence this prediction targeted.
    target_seq: u64,
    /// Lookahead step, `1..horizon` slots past the display slot.
    h: usize,
    /// Predicted visible tile set.
    tiles: TileSet,
}

/// Per-user server-side state.
struct UserState {
    /// Session-unique user ID, assigned monotonically at join — never
    /// reused after a departure, unlike the registry slot holding this
    /// state.
    user_id: u32,
    transport: Box<dyn ServerTransport>,
    predictor: LinearPredictor,
    delta: DeltaEstimator,
    bandwidth: EmaEstimator,
    ledger: DeliveryLedger,
    /// Protocol version this user's Hello negotiated. v2 users are
    /// served unicast `Assignment`s even in a multicast session.
    version: u16,
    /// Per-level undelivered-rate sums over the current FoV target, kept
    /// in lockstep with `ledger` through the paired ACK/Release calls.
    undelivered: UndeliveredSums,
    qoe: UserQoeAccumulator,
    last_pose: Pose,
    last_pose_seq: u64,
    has_pose: bool,
    /// Slots since the freshest pose arrived.
    staleness_slots: usize,
    predictions: VecDeque<PredictionRecord>,
    /// Degraded users are pinned to the lowest quality until their
    /// outbound queue drains — the slow-client policy.
    degraded: bool,
    /// Times this user *entered* the degraded state (recoveries reset the
    /// flag but not this count).
    degrade_transitions: u64,
    /// Per-radio estimators fed by `LinkSample`s (bonded clients only);
    /// faster weight than the planning EMA so outages surface quickly.
    wifi_bw: EmaEstimator,
    lte_bw: EmaEstimator,
    /// Link the failover policy currently routes this user over.
    active_link: LinkId,
    /// Recovery streak carried between failover decisions.
    link_streak: u32,
    /// Failovers this user has performed.
    link_switches: u64,
    /// Set once the first `LinkSample` arrives: this user is bonded.
    multilink: bool,
    /// Bandwidth-floor degrade, held separately from the backpressure
    /// `degraded` flag so queue recovery cannot clear a starvation pin.
    bw_degraded: bool,
    /// Anticipatory-degrade state over the planning estimate (lookahead
    /// sessions only; untouched at `horizon = 1`).
    lookahead_degrade: AnticipatoryDegrade,
    /// Outstanding prefetched tiles awaiting their ACK or release.
    prefetcher: Prefetcher,
    /// Lookahead FoV predictions awaiting their scoring pose.
    fov_predictions: VecDeque<FovPredictionRecord>,
    seed: u64,
}

impl UserState {
    fn new(
        user_id: u32,
        transport: Box<dyn ServerTransport>,
        config: &ServeConfig,
        library: &ContentLibrary,
        seed: u64,
        version: u16,
    ) -> Self {
        UserState {
            user_id,
            transport,
            predictor: LinearPredictor::paper_default(),
            delta: DeltaEstimator::ewma(1.0, 0.02),
            bandwidth: EmaEstimator::new(config.ema_weight),
            ledger: DeliveryLedger::new(),
            version,
            undelivered: UndeliveredSums::new(library.quality_set().len()),
            qoe: UserQoeAccumulator::new(config.params),
            last_pose: Pose::default(),
            last_pose_seq: 0,
            has_pose: false,
            staleness_slots: 0,
            predictions: VecDeque::new(),
            degraded: false,
            degrade_transitions: 0,
            wifi_bw: EmaEstimator::new(config.link_ema_weight),
            lte_bw: EmaEstimator::new(config.link_ema_weight),
            active_link: LinkId::Wifi,
            link_streak: 0,
            link_switches: 0,
            multilink: false,
            bw_degraded: false,
            lookahead_degrade: AnticipatoryDegrade::new(DegradeConfig::default()),
            prefetcher: Prefetcher::new(),
            fov_predictions: VecDeque::new(),
            seed,
        }
    }
}

/// Observability counters for one session, updated every slot.
#[derive(Debug, Default, Clone)]
pub struct ServerCounters {
    /// Slots executed.
    pub ticks: u64,
    /// Slots whose work met the deadline.
    pub on_time_ticks: u64,
    /// Slots whose work ran past the period (deadline misses).
    pub tick_overruns: u64,
    /// Users admitted over the session lifetime.
    pub joins: u64,
    /// Users departed (Bye, close, or protocol error).
    pub leaves: u64,
    /// Corrupt frames, version mismatches, and out-of-order handshakes.
    pub protocol_errors: u64,
    /// Frames discarded by outbound backpressure across all users.
    pub frames_dropped: u64,
    /// Times a user entered the degraded (lowest-quality) state.
    pub degraded_transitions: u64,
    /// Bonded-link failovers across all users.
    pub link_switches: u64,
    /// Deepest outbound queue observed on any connection.
    pub max_outbound_queue_depth: usize,
    /// Connections closed for not sending `Hello` within the handshake
    /// deadline.
    pub handshake_timeouts: u64,
    /// Connections refused because the handshake queue was full.
    pub pending_refused: u64,
}

/// What one departed (or still-connected, at report time) user looked
/// like from the server side.
#[derive(Debug, Clone, PartialEq)]
pub struct UserServerSummary {
    /// The user's session ID.
    pub user_id: u32,
    /// The seed the client announced in its Hello.
    pub seed: u64,
    /// Server-side QoE bookkeeping (scored against ACKed poses).
    pub qoe: UserQoeSummary,
    /// Final prediction-accuracy estimate δ.
    pub delta: f64,
    /// Final bandwidth estimate, Mbps.
    pub bandwidth_mbps: f64,
    /// Frames this user's outbound queue discarded under backpressure.
    pub frames_dropped: u64,
    /// Times this user entered the degraded (lowest-quality) state.
    pub degrade_transitions: u64,
    /// Bonded-link failovers this user performed (0 for single-link
    /// clients).
    pub link_switches: u64,
}

/// End-of-run session report: counters plus per-stage timing summaries.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Final counter values.
    pub counters: ServerCounters,
    /// Ingest-stage timing per slot.
    pub ingest: StageStats,
    /// Transmit-stage timing per slot.
    pub transmit: StageStats,
    /// Engine problem-build timing per slot.
    pub build: StageStats,
    /// Engine density-pass timing per slot.
    pub density: StageStats,
    /// Engine value-pass timing per slot.
    pub value: StageStats,
    /// Whole-slot work timing (from the ticker).
    pub tick: StageStats,
    /// Per-user server-side summaries, in join order.
    pub users: Vec<UserServerSummary>,
}

impl ServeReport {
    /// Fraction of slots that met the deadline (1.0 before any tick).
    pub fn on_time_fraction(&self) -> f64 {
        if self.counters.ticks == 0 {
            1.0
        } else {
            self.counters.on_time_ticks as f64 / self.counters.ticks as f64
        }
    }
}

/// One live session: a registry of users driven through
/// ingest → plan → transmit each slot by a single [`SlotEngine`].
pub struct Session {
    config: ServeConfig,
    library: ContentLibrary,
    engine: SlotEngine,
    users: Vec<Option<UserState>>,
    /// Connections awaiting their `Hello`, with the slot each arrived in.
    pending: Vec<(Box<dyn ServerTransport>, u64)>,
    departed: Vec<UserServerSummary>,
    /// Next user ID to hand out; IDs are never reused even when registry
    /// slots are, so report summaries stay unambiguous across churn.
    next_user_id: u32,
    slot: u64,
    counters: ServerCounters,
    obs: SessionObs,
    ingest_clock: StageClock,
    transmit_clock: StageClock,
    tick_clock: StageClock,
    /// Session-wide cache of materialised per-cell rate rows.
    plane: RatePlane,
    /// Session-wide FoV request cache: one materialised tile set per
    /// (cell, orientation bucket), shared by every user — the per-user
    /// caches this replaces each held a copy of the same row.
    shared_fov: SharedFovCache,
    /// Multicast group discovery (used only when `config.multicast`).
    groups: GroupTracker,
    /// Multicast groups (≥2 members) formed in the last planned slot.
    mcast_groups_last: usize,
    /// Lookahead policy derived from `config.horizon` (inactive at 1).
    lookahead: LookaheadConfig,
    // Reused per-slot scratch, engine-index order.
    plan_ids: Vec<usize>,
    plan_predicted: Vec<Pose>,
    /// Per-user planning bandwidth estimate (each member's link budget
    /// when multicast stages a group).
    plan_bn: Vec<f64>,
    /// Per-user multicast group key (`None` = not groupable this slot:
    /// v2 client, degraded, unbucketable pose, or multicast off).
    plan_keys: Vec<Option<GroupKey>>,
    /// Per-user unicast rate/value rows built when multicast is on (the
    /// engine then receives one row per *group*).
    mc_rates: Vec<f64>,
    mc_values: Vec<f64>,
    /// Multicast staging per engine row `r`, read by the transmit
    /// fan-out: its member plan indices and caps are the
    /// [`row_of`]`(…, staged_offsets, r)` slices of the flat
    /// `staged_members`/`staged_caps`, its group id is `staged_gid[r]`.
    staged_members: Vec<usize>,
    staged_caps: Vec<usize>,
    staged_offsets: Vec<usize>,
    staged_gid: Vec<u64>,
    /// Plan index → the group it leads (`usize::MAX` otherwise).
    first_of: Vec<usize>,
    /// Prefetch manifest extensions staged this slot: plan index `i`'s
    /// ids are [`row_of`]`(plan_prefetch, plan_prefetch_offsets, i)`
    /// (no offsets, hence no ids, at `horizon = 1`).
    plan_prefetch: Vec<VideoId>,
    plan_prefetch_offsets: Vec<usize>,
    /// Per-plan-index assigned quality and ≥2-group membership, read by
    /// the prefetch pass.
    plan_quality: Vec<QualityLevel>,
    plan_grouped: Vec<bool>,
    future_cells: Vec<CellId>,
    future_tiles: Vec<TileSet>,
    prefetch_released: Vec<VideoId>,
    manifest: Vec<VideoId>,
    payload: Vec<u8>,
}

impl Session {
    /// Creates an empty session over the paper-default content library.
    pub fn new(config: ServeConfig) -> Self {
        let library = ContentLibrary::paper_default();
        let plane = RatePlane::new(library.sizing().clone(), DEFAULT_PLANE_CELLS);
        let shared_fov = SharedFovCache::new(*library.fov());
        let groups = GroupTracker::new(config.mcast_hysteresis_slots);
        let obs = SessionObs::new(config.horizon);
        let lookahead = LookaheadConfig::for_horizon(config.horizon);
        Session {
            config,
            library,
            engine: SlotEngine::new(),
            users: Vec::new(),
            pending: Vec::new(),
            departed: Vec::new(),
            next_user_id: 0,
            slot: 0,
            counters: ServerCounters::default(),
            obs,
            ingest_clock: StageClock::default(),
            transmit_clock: StageClock::default(),
            tick_clock: StageClock::default(),
            plane,
            shared_fov,
            groups,
            mcast_groups_last: 0,
            lookahead,
            plan_ids: Vec::new(),
            plan_predicted: Vec::new(),
            plan_bn: Vec::new(),
            plan_keys: Vec::new(),
            mc_rates: Vec::new(),
            mc_values: Vec::new(),
            staged_members: Vec::new(),
            staged_caps: Vec::new(),
            staged_offsets: Vec::new(),
            staged_gid: Vec::new(),
            first_of: Vec::new(),
            plan_prefetch: Vec::new(),
            plan_prefetch_offsets: Vec::new(),
            plan_quality: Vec::new(),
            plan_grouped: Vec::new(),
            future_cells: Vec::new(),
            future_tiles: Vec::new(),
            prefetch_released: Vec::new(),
            manifest: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Registers a freshly accepted connection; the user joins once its
    /// `Hello` arrives, and the connection is closed if that takes more
    /// than `HANDSHAKE_DEADLINE_SLOTS` slots. While
    /// `MAX_PENDING_CONNECTIONS` connections already await their `Hello`,
    /// the new one is refused with a `Shutdown`.
    pub fn add_connection(&mut self, mut transport: Box<dyn ServerTransport>) {
        if self.pending.len() >= MAX_PENDING_CONNECTIONS {
            self.counters.pending_refused += 1;
            self.obs.registry.inc(self.obs.c_pending_refused, 1);
            transport.send(&ServerMessage::Shutdown);
            transport.close();
            return;
        }
        self.pending.push((transport, self.slot));
    }

    /// Users currently joined.
    pub fn active_users(&self) -> usize {
        self.users.iter().filter(|u| u.is_some()).count()
    }

    /// Slots executed so far.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Live counter values.
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// The session's metrics registry (stage histograms, lifecycle
    /// counters, client gauges).
    pub fn metrics(&self) -> &Registry {
        &self.obs.registry
    }

    /// Refreshes the instantaneous gauges (joined clients, deepest queue,
    /// current slot) so a read of [`Session::metrics`] — or a merge into a
    /// multi-session snapshot (see [`crate::shard::ShardHost`]) — sees
    /// current values, not the values at the last render.
    pub fn sync_gauges(&mut self) {
        let clients = self.active_users() as i64;
        self.obs.registry.set_gauge(self.obs.g_clients, clients);
        self.obs.registry.set_gauge(
            self.obs.g_queue_depth,
            self.counters.max_outbound_queue_depth as i64,
        );
        self.obs
            .registry
            .set_gauge(self.obs.g_slot, self.slot as i64);
        self.obs
            .registry
            .set_gauge(self.obs.g_mcast_groups, self.mcast_groups_last as i64);
    }

    /// Multicast groups (two or more members) formed in the last planned
    /// slot — the value behind the `cvr_mcast_groups` gauge. Always 0
    /// when multicast is off.
    pub fn multicast_groups(&self) -> usize {
        self.mcast_groups_last
    }

    /// Refreshes the instantaneous gauges and renders the registry in the
    /// Prometheus text exposition format — the payload the
    /// [`crate::expose::MetricsExporter`] publishes.
    pub fn render_metrics(&mut self) -> String {
        self.sync_gauges();
        self.obs.registry.render()
    }

    /// Enables event tracing with a ring of at most `capacity` records
    /// (stage timings sampled 1-in-16 to bound the volume; lifecycle
    /// events are kept unsampled). `capacity = 0` disables tracing.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let mut tracer = if capacity == 0 {
            Tracer::disabled()
        } else {
            Tracer::with_capacity(capacity)
        };
        tracer.set_sample_every(cvr_obs::trace::EventKind::Stage, 16);
        self.obs.tracer = tracer;
    }

    /// The event tracer (see [`Session::enable_tracing`]); export with
    /// [`Tracer::to_jsonl`].
    pub fn tracer(&self) -> &Tracer {
        &self.obs.tracer
    }

    /// Executes one slot: ingest → plan → transmit. Does not pace or
    /// account for deadlines — callers own the clock (see
    /// [`Session::run`] and [`Session::note_tick`]).
    pub fn step_slot(&mut self) {
        self.obs
            .tracer
            .record(TraceEvent::SlotStart { slot: self.slot });

        let ingest_start = Instant::now();
        self.admit_pending();
        self.ingest();
        let ingest_ns = ingest_start.elapsed().as_nanos() as u64;
        self.ingest_clock.record_ns(ingest_ns);
        self.obs
            .stage(self.obs.h_ingest, self.slot, "ingest", ingest_ns);

        self.plan();

        let transmit_start = Instant::now();
        self.transmit();
        let transmit_ns = transmit_start.elapsed().as_nanos() as u64;
        self.transmit_clock.record_ns(transmit_ns);
        self.obs
            .stage(self.obs.h_transmit, self.slot, "transmit", transmit_ns);

        self.slot += 1;
    }

    /// Records one completed slot's deadline outcome and work duration.
    /// [`Session::run`] calls this from its ticker; lockstep harnesses
    /// call it directly with `on_time = true`.
    pub fn note_tick(&mut self, on_time: bool, work_ns: u64) {
        self.counters.ticks += 1;
        self.obs.registry.inc(self.obs.c_ticks, 1);
        // The slot counter has already advanced past the completed slot.
        let slot = self.slot.saturating_sub(1);
        if on_time {
            self.counters.on_time_ticks += 1;
            self.obs.registry.inc(self.obs.c_on_time, 1);
        } else {
            self.counters.tick_overruns += 1;
            self.obs.registry.inc(self.obs.c_overruns, 1);
            self.obs
                .tracer
                .record(TraceEvent::TickOverrun { slot, work_ns });
        }
        self.tick_clock.record_ns(work_ns);
        self.obs.registry.observe(self.obs.h_tick, work_ns);
        self.obs.tracer.record(TraceEvent::SlotEnd {
            slot,
            work_ns,
            on_time,
        });
    }

    /// Runs `slots` slots against the given ticker, accounting each
    /// slot's deadline outcome.
    pub fn run(&mut self, ticker: &mut SlotTicker, slots: u64) {
        for _ in 0..slots {
            self.step_slot();
            let on_time = ticker.wait();
            self.note_tick(on_time, ticker.last_work_ns());
        }
    }

    /// Sends every connected user a `Shutdown` and closes the transports.
    pub fn shutdown(&mut self) {
        for slot in &mut self.users {
            if let Some(mut user) = slot.take() {
                user.transport.send(&ServerMessage::Shutdown);
                user.transport.close();
                self.obs.tracer.record(TraceEvent::ClientLeave {
                    user_id: user.user_id as u64,
                });
                self.departed.push(Self::summarise(&user));
                self.counters.leaves += 1;
                self.obs.registry.inc(self.obs.c_leaves, 1);
            }
        }
        for (mut t, _) in self.pending.drain(..) {
            t.close();
        }
    }

    /// Builds the end-of-run report. Still-connected users are summarised
    /// in place; call [`Session::shutdown`] first for a final report.
    pub fn report(&mut self) -> ServeReport {
        let mut users = self.departed.clone();
        for user in self.users.iter().flatten() {
            users.push(Self::summarise(user));
        }
        users.sort_by_key(|u| u.user_id);
        ServeReport {
            counters: self.counters.clone(),
            ingest: StageStats::from_clock(&self.ingest_clock),
            transmit: StageStats::from_clock(&self.transmit_clock),
            build: StageStats::from_clock(&self.engine.timers().build),
            density: StageStats::from_clock(&self.engine.timers().density),
            value: StageStats::from_clock(&self.engine.timers().value),
            tick: StageStats::from_clock(&self.tick_clock),
            users,
        }
    }

    fn summarise(user: &UserState) -> UserServerSummary {
        UserServerSummary {
            user_id: user.user_id,
            seed: user.seed,
            qoe: user.qoe.summary(),
            delta: user.delta.estimate(),
            bandwidth_mbps: user.bandwidth.estimate().unwrap_or(f64::NAN),
            frames_dropped: user.transport.frames_dropped(),
            degrade_transitions: user.degrade_transitions,
            link_switches: user.link_switches,
        }
    }

    /// Drains pending connections: a valid `Hello` joins the user, a
    /// protocol violation refuses the connection, and a connection still
    /// silent at the handshake deadline is closed.
    fn admit_pending(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain_mut(|(transport, arrived)| {
            if transport.is_closed() {
                return false;
            }
            match transport.try_recv() {
                None if self.slot - *arrived >= HANDSHAKE_DEADLINE_SLOTS => {
                    self.counters.handshake_timeouts += 1;
                    self.obs.registry.inc(self.obs.c_handshake_timeouts, 1);
                    transport.close();
                    false
                }
                None => true,
                Some(Ok(ClientMessage::Hello { version, seed })) => {
                    let speaks_supported =
                        (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version);
                    if !speaks_supported || self.active_users() >= self.config.max_users {
                        if !speaks_supported {
                            self.counters.protocol_errors += 1;
                            self.obs.registry.inc(self.obs.c_proto, 1);
                            self.obs.tracer.record(TraceEvent::ProtocolError {
                                context: "handshake",
                            });
                        }
                        transport.send(&ServerMessage::Shutdown);
                        transport.close();
                        return false;
                    }
                    // Take the transport out of the closure's slot by
                    // swapping in a placeholder that is dropped with the
                    // retain.
                    let taken = std::mem::replace(transport, closed_placeholder());
                    self.join(taken, seed, version);
                    false
                }
                Some(_) => {
                    // Anything else before the handshake is a violation.
                    self.counters.protocol_errors += 1;
                    self.obs.registry.inc(self.obs.c_proto, 1);
                    self.obs.tracer.record(TraceEvent::ProtocolError {
                        context: "pre-handshake",
                    });
                    transport.close();
                    false
                }
            }
        });
        // Re-append connections that arrived while draining (join sends
        // nothing to pending, but keep the merge for safety).
        pending.append(&mut self.pending);
        self.pending = pending;
    }

    fn join(&mut self, mut transport: Box<dyn ServerTransport>, seed: u64, version: u16) {
        let slot = match self.users.iter().position(|u| u.is_none()) {
            Some(free) => free,
            None => {
                self.users.push(None);
                self.users.len() - 1
            }
        };
        let user_id = self.next_user_id;
        self.next_user_id += 1;
        // Echo the client's (supported) version so a v2 client sees a v2
        // handshake and never receives v3-only frames.
        transport.send(&ServerMessage::Welcome {
            version,
            user_id,
            slot_us: self
                .config
                .slot_duration
                .as_micros()
                .min(u64::from(u32::MAX) as u128) as u32,
            levels: self.library.quality_set().len() as u8,
        });
        self.users[slot] = Some(UserState::new(
            user_id,
            transport,
            &self.config,
            &self.library,
            seed,
            version,
        ));
        self.counters.joins += 1;
        self.obs.registry.inc(self.obs.c_joins, 1);
        self.obs.tracer.record(TraceEvent::ClientJoin {
            user_id: user_id as u64,
        });
    }

    /// Drains every joined user's upstream queue.
    fn ingest(&mut self) {
        for id in 0..self.users.len() {
            let Some(mut user) = self.users[id].take() else {
                continue;
            };
            let mut leave = false;
            let mut violation = false;
            while let Some(received) = user.transport.try_recv() {
                match received {
                    Ok(ClientMessage::Pose { seq, pose }) => {
                        user.predictor.observe(&pose);
                        user.last_pose = pose;
                        user.last_pose_seq = seq;
                        user.has_pose = true;
                        user.staleness_slots = 0;
                        // Score every prediction this pose (or an earlier,
                        // missed one) was targeting.
                        while user
                            .predictions
                            .front()
                            .is_some_and(|p| p.target_seq <= seq)
                        {
                            let record = user.predictions.pop_front().expect("checked front");
                            let hit = self.library.fov().covers(&record.predicted, &pose);
                            user.delta.record(hit);
                            user.qoe.record(record.quality, hit, record.delay_slots);
                        }
                        // Score lookahead FoV predictions the same way:
                        // this pose (or an earlier, missed one) is the
                        // ground truth for every record it has caught up
                        // with. Its tile set is evaluated once, on the
                        // first such record.
                        let mut actual = None;
                        while user
                            .fov_predictions
                            .front()
                            .is_some_and(|p| p.target_seq <= seq)
                        {
                            let record = user.fov_predictions.pop_front().expect("checked front");
                            let actual = actual.get_or_insert_with(|| {
                                TileSet::for_pose(self.library.fov(), &pose)
                            });
                            let overlap =
                                fov_tile_overlap(record.tiles.as_slice(), actual.as_slice());
                            self.obs
                                .registry
                                .observe(self.obs.h_overlap[record.h - 1], overlap as u64);
                        }
                    }
                    Ok(ClientMessage::Ack { ids }) => {
                        for vid in ids {
                            user.undelivered.acknowledge(&mut user.ledger, vid);
                        }
                    }
                    Ok(ClientMessage::Release { ids }) => {
                        user.undelivered.release(&mut user.ledger, ids);
                    }
                    Ok(ClientMessage::BandwidthSample { mbps }) => {
                        user.bandwidth.update(mbps);
                    }
                    Ok(ClientMessage::LinkSample { link, mbps }) => {
                        user.multilink = true;
                        match link {
                            LinkId::Wifi => user.wifi_bw.update(mbps),
                            LinkId::Lte => user.lte_bw.update(mbps),
                        };
                        let wifi = user.wifi_bw.estimate_or(0.0);
                        let lte = user.lte_bw.estimate_or(0.0);
                        let before = user.active_link;
                        let (active, streak) =
                            self.config
                                .failover
                                .next(before, wifi, lte, user.link_streak);
                        user.active_link = active;
                        user.link_streak = streak;
                        if active != before {
                            // Failover: re-anchor the planning estimator
                            // on the radio now carrying traffic so the
                            // next slot budgets against it immediately
                            // instead of bleeding the old link's history
                            // through the slow EMA.
                            user.link_switches += 1;
                            self.counters.link_switches += 1;
                            self.obs.registry.inc(self.obs.c_link_switches, 1);
                            user.bandwidth.reset();
                            user.bandwidth.update(match active {
                                LinkId::Wifi => wifi,
                                LinkId::Lte => lte,
                            });
                        } else if link == active {
                            user.bandwidth.update(mbps);
                        }
                    }
                    Ok(ClientMessage::Bye) => {
                        leave = true;
                    }
                    Ok(ClientMessage::Hello { .. }) => {
                        // Duplicate handshake mid-session.
                        violation = true;
                    }
                    Err(_) => {
                        violation = true;
                    }
                }
                if leave || violation {
                    break;
                }
            }
            if violation {
                self.counters.protocol_errors += 1;
                self.obs.registry.inc(self.obs.c_proto, 1);
                self.obs
                    .tracer
                    .record(TraceEvent::ProtocolError { context: "ingest" });
                leave = true;
            }
            if leave || user.transport.is_closed() {
                user.transport.close();
                self.obs.tracer.record(TraceEvent::ClientLeave {
                    user_id: user.user_id as u64,
                });
                self.departed.push(Self::summarise(&user));
                self.counters.leaves += 1;
                self.obs.registry.inc(self.obs.c_leaves, 1);
            } else {
                self.users[id] = Some(user);
            }
        }
    }

    /// Stages this slot's problem into the engine and solves it.
    ///
    /// One pass over the users resolves each user's FoV target (cached
    /// visible-tile request, cached rate-plane rows, incremental
    /// undelivered sums) and stages its rate/value rows — straight into
    /// the engine for unicast, into per-user scratch rows when multicast
    /// stages one engine row per group afterwards.
    fn plan(&mut self) {
        self.plan_ids.clear();
        self.plan_predicted.clear();
        self.plan_bn.clear();
        self.plan_keys.clear();
        self.mc_rates.clear();
        self.mc_values.clear();

        let dt = self.config.slot_duration.as_secs_f64();
        let levels = self.library.quality_set().len();
        let floor_slots = PROPAGATION_S / dt;
        let params = self.config.params;

        let build_start = Instant::now();
        self.engine.begin_slot(self.config.server_total_mbps);
        for id in 0..self.users.len() {
            let Some(user) = &mut self.users[id] else {
                continue;
            };
            // Predict the pose this slot's content will be displayed
            // against: pipeline depth plus however stale the freshest
            // upload already is.
            let horizon = (PIPELINE_SLOTS + user.staleness_slots) as f64;
            let predicted = user
                .predictor
                .predict_fractional(horizon)
                .unwrap_or(user.last_pose);
            let cell = self.library.grid().cell_of(&predicted.position);
            let orientation = self.shared_fov.key_for(&predicted);
            let tiles = self.shared_fov.tiles_for(&predicted);
            if !user.undelivered.targets(cell, tiles) {
                user.undelivered
                    .retarget(cell, tiles, self.plane.rows(cell), &user.ledger);
            }
            #[cfg(debug_assertions)]
            user.undelivered.assert_matches_ledger(&user.ledger);

            let bn = user
                .bandwidth
                .estimate_or(self.config.default_bandwidth_mbps)
                .max(1.0);
            // Bandwidth-floor degrade for bonded users: starving links pin
            // the user to the lowest quality; recovery needs 2× the floor
            // (hysteresis) so a flapping radio cannot oscillate quality.
            if user.multilink {
                if !user.bw_degraded && bn < self.config.degrade_floor_mbps {
                    user.bw_degraded = true;
                    user.degrade_transitions += 1;
                    self.counters.degraded_transitions += 1;
                    self.obs.registry.inc(self.obs.c_degraded, 1);
                    self.obs.tracer.record(TraceEvent::Degrade {
                        user_id: user.user_id as u64,
                        degraded: true,
                    });
                } else if user.bw_degraded && bn > 2.0 * self.config.degrade_floor_mbps {
                    user.bw_degraded = false;
                    self.obs.tracer.record(TraceEvent::Degrade {
                        user_id: user.user_id as u64,
                        degraded: false,
                    });
                }
            }
            // Anticipatory degrade (lookahead sessions): clamp the
            // planning estimate toward the fitted-trend forecast so
            // quality ramps down ahead of a dip instead of cliff-dropping
            // when the EMA catches up. The floor hysteresis above keeps
            // reading the raw estimate — a clamp must not pin a user.
            let bn = if self.lookahead.active() {
                user.lookahead_degrade
                    .observe_and_clamp(bn, self.lookahead.horizon)
                    .max(1.0)
            } else {
                bn
            };
            // Multicast group eligibility: a v3, non-degraded user whose
            // pose falls in an orientation bucket. The key fingerprints
            // the undelivered level-prefix state, so equal keys guarantee
            // byte-identical manifests and rate rows.
            let key = if self.config.multicast
                && user.version >= PROTOCOL_VERSION
                && !user.degraded
                && !user.bw_degraded
            {
                orientation.map(|orientation| GroupKey {
                    cell,
                    orientation,
                    content: content_fingerprint(&user.undelivered),
                })
            } else {
                None
            };
            self.plan_keys.push(key);
            self.plan_ids.push(id);
            self.plan_predicted.push(predicted);
            self.plan_bn.push(bn);

            let (rates, values) = if self.config.multicast {
                let start = self.mc_rates.len();
                self.mc_rates.resize(start + levels, 0.0);
                self.mc_values.resize(start + levels, 0.0);
                (&mut self.mc_rates[start..], &mut self.mc_values[start..])
            } else {
                let tables = self.engine.add_user(levels, bn);
                (tables.rates, tables.values)
            };
            let delta = user.delta.estimate();
            let tracker = *user.qoe.tracker();
            let fallback = Mm1Delay::new(bn).expect("positive estimate");
            stage_rates_values_with(
                user.undelivered.sums(),
                CONTROL_OVERHEAD_MBPS,
                rates,
                values,
                |l, raw| {
                    let q = QualityLevel::new((l + 1) as u8);
                    let delay = fallback.delay(raw) + floor_slots;
                    delta * q.value()
                        - params.alpha * delay
                        - params.beta * tracker.expected_penalty(q.value(), delta)
                },
            );
            sanitize_rates(rates);
        }

        if self.config.multicast {
            self.stage_groups(levels);
        }
        let build_ns = build_start.elapsed().as_nanos() as u64;
        self.engine.timers_mut().build.record_ns(build_ns);
        self.obs
            .stage(self.obs.h_build, self.slot, "build", build_ns);

        if !self.plan_ids.is_empty() {
            self.engine.solve();
            // `solve` records exactly one sample per internal pass, so the
            // freshest sample is this slot's measurement.
            if let Some(ns) = self.engine.timers().density.last_ns() {
                self.obs.stage(self.obs.h_density, self.slot, "density", ns);
            }
            if let Some(ns) = self.engine.timers().value.last_ns() {
                self.obs.stage(self.obs.h_value, self.slot, "value", ns);
            }
        }

        self.plan_prefetch.clear();
        self.plan_prefetch_offsets.clear();
        if self.lookahead.active() && !self.plan_ids.is_empty() {
            self.prefetch_pass();
        }
    }

    /// Lookahead pass, run after the solve while its assignment is live:
    /// queues FoV-overlap prediction records per horizon step and spends
    /// this slot's bounded budget slack prefetching base-quality tiles
    /// for predicted future cells. Prefetched ids ride the assignment
    /// manifests (see [`Session::transmit`]); the ledger charges them
    /// when the client ACKs, and reconciliation releases predictions
    /// that never materialised. Sequential in plan order and rng-free.
    fn prefetch_pass(&mut self) {
        let rows = self.engine.assignment().len();
        let assigned: f64 = (0..rows)
            .map(|r| self.engine.rates(r)[self.engine.assignment()[r].index()])
            .sum();
        let mut credit = slot_credit(
            self.config.server_total_mbps,
            assigned,
            self.lookahead.prefetch.credit_fraction,
        );
        // Members of a ≥2 group receive shared group payloads this slot,
        // so per-user prefetch ids would have nowhere to ride — they keep
        // their prediction records but spend no credit. Also map each
        // plan index to its engine row's assigned quality: in multicast
        // mode staged rows are per *group*, not per plan index.
        let n = self.plan_ids.len();
        self.plan_grouped.clear();
        self.plan_grouped.resize(n, false);
        self.plan_quality.clear();
        if self.config.multicast {
            self.plan_quality.resize(n, QualityLevel::MIN);
            for r in 0..rows {
                let members = row_of(&self.staged_members, &self.staged_offsets, r);
                for &m in members {
                    self.plan_quality[m] = self.engine.assignment()[r];
                    self.plan_grouped[m] = members.len() >= 2;
                }
            }
        } else {
            self.plan_quality
                .extend_from_slice(self.engine.assignment());
        }
        self.plan_prefetch_offsets.push(0);
        for i in 0..n {
            let id = self.plan_ids[i];
            let Some(user) = &mut self.users[id] else {
                self.plan_prefetch_offsets.push(self.plan_prefetch.len());
                continue;
            };
            if user.has_pose && !user.degraded && !user.bw_degraded {
                let current = user.undelivered.cell().expect("targeted during plan");
                self.future_cells.clear();
                self.future_tiles.clear();
                for h in 1..self.lookahead.horizon {
                    let horizon_slots = (PIPELINE_SLOTS + user.staleness_slots + h) as f64;
                    let Some(pose) = user.predictor.predict_fractional(horizon_slots) else {
                        continue;
                    };
                    // One tile set per predicted pose: it is both the
                    // overlap record and the future cell's prefetch set.
                    let tiles = TileSet::for_pose(self.library.fov(), &pose);
                    user.fov_predictions.push_back(FovPredictionRecord {
                        target_seq: user.last_pose_seq
                            + (user.staleness_slots + PIPELINE_SLOTS + h) as u64,
                        h,
                        tiles,
                    });
                    if user.fov_predictions.len() > MAX_PENDING_PREDICTIONS {
                        user.fov_predictions.pop_front();
                    }
                    let cell = self.library.grid().cell_of(&pose.position);
                    if cell != current && !self.future_cells.contains(&cell) {
                        self.future_cells.push(cell);
                        self.future_tiles.push(tiles);
                    }
                }
                self.prefetch_released.clear();
                user.prefetcher
                    .reconcile(current, &self.future_cells, &mut self.prefetch_released);
                if !self.prefetch_released.is_empty() {
                    // Un-ACKed ids are absent from the ledger; releasing
                    // them there is a no-op, which is exactly right.
                    user.undelivered
                        .release(&mut user.ledger, self.prefetch_released.drain(..));
                }
                // Prefetch at the quality this user's row was assigned
                // (floored at the configured base): seeding the current
                // level keeps quality flat across the cell boundary,
                // while seeding a lower one would hand the allocator a
                // cheap downgrade on arrival.
                let pf_quality = QualityLevel::new(
                    self.plan_quality[i]
                        .get()
                        .max(self.lookahead.prefetch.quality.get()),
                );
                let row = pf_quality.index() * usize::from(TileId::COUNT);
                let mut taken = 0usize;
                'cells: for idx in 0..self.future_cells.len() {
                    if self.plan_grouped[i] {
                        break 'cells;
                    }
                    let cell = self.future_cells[idx];
                    let mut level_rates = [0.0f64; TileId::COUNT as usize];
                    level_rates.copy_from_slice(
                        &self.plane.rows(cell)[row..row + usize::from(TileId::COUNT)],
                    );
                    for &t in self.future_tiles[idx].as_slice() {
                        if taken >= self.lookahead.prefetch.max_tiles_per_slot {
                            break 'cells;
                        }
                        let vid = VideoId::new(cell, t, pf_quality);
                        if user.ledger.is_delivered(&vid) || user.prefetcher.contains(&vid) {
                            continue;
                        }
                        let cost = level_rates[t.get() as usize];
                        if cost > credit {
                            continue;
                        }
                        credit -= cost;
                        taken += 1;
                        user.prefetcher.note(cell, vid);
                        self.plan_prefetch.push(vid);
                    }
                }
            }
            self.plan_prefetch_offsets.push(self.plan_prefetch.len());
        }
    }

    /// Multicast staging: discovers this slot's shared-FoV groups and
    /// stages one engine row per group, walking users in plan order and
    /// staging each whole group at its first member's position — so a
    /// slot where every group is a singleton stages exactly the unicast
    /// problem, row for row.
    fn stage_groups(&mut self, levels: usize) {
        let n = self.plan_ids.len();
        self.staged_members.clear();
        self.staged_caps.clear();
        self.staged_offsets.clear();
        self.staged_offsets.push(0);
        self.staged_gid.clear();
        self.groups.begin_slot(self.slot);
        for i in 0..n {
            if let Some(key) = self.plan_keys[i] {
                self.groups.observe(i, key);
            }
        }
        self.groups.finish_slot();
        self.mcast_groups_last = self.groups.multicast_groups();

        self.first_of.clear();
        self.first_of.resize(n, usize::MAX);
        for (g, group) in self.groups.groups().iter().enumerate() {
            self.first_of[group.members[0]] = g;
        }
        // One row's member inputs, refilled per row.
        let mut member_rows: Vec<GroupMember<'_>> = Vec::new();
        for i in 0..n {
            let (members, gid) = if self.plan_keys[i].is_some() {
                let g = self.first_of[i];
                if g == usize::MAX {
                    // Staged already, with its group at the first member.
                    continue;
                }
                let group = &self.groups.groups()[g];
                (group.members.as_slice(), group.id)
            } else {
                (std::slice::from_ref(&i), u64::MAX)
            };
            member_rows.clear();
            member_rows.extend(members.iter().map(|&m| GroupMember {
                values: &self.mc_values[m * levels..(m + 1) * levels],
                link_budget: self.plan_bn[m],
            }));
            let first = members[0];
            let shared = &self.mc_rates[first * levels..(first + 1) * levels];
            stage_group(
                &mut self.engine,
                shared,
                &member_rows,
                &mut self.staged_caps,
            );
            self.staged_members.extend_from_slice(members);
            self.staged_offsets.push(self.staged_members.len());
            self.staged_gid.push(gid);
        }
    }

    /// Shared post-send bookkeeping for one user: queue-depth tracking,
    /// drop accounting, and the backpressure degrade/recover transitions.
    /// Returns `false` when the transport reported the peer closed.
    fn account_send(
        user: &mut UserState,
        counters: &mut ServerCounters,
        obs: &mut SessionObs,
        status: SendStatus,
    ) -> bool {
        let depth = user.transport.queue_depth();
        counters.max_outbound_queue_depth = counters.max_outbound_queue_depth.max(depth);
        match status {
            SendStatus::Sent => {
                // Recover once the queue has drained well below capacity
                // and the writer is moving again.
                if user.degraded
                    && !user.transport.is_stalled()
                    && depth <= user.transport.queue_capacity() / 2
                {
                    user.degraded = false;
                    obs.tracer.record(TraceEvent::Degrade {
                        user_id: user.user_id as u64,
                        degraded: false,
                    });
                }
            }
            SendStatus::DroppedOldest(n) => {
                counters.frames_dropped += n as u64;
                obs.registry.inc(obs.c_dropped, n as u64);
                obs.tracer.record(TraceEvent::QueueDrop {
                    user_id: user.user_id as u64,
                    dropped: n as u64,
                });
                if !user.degraded {
                    user.degraded = true;
                    user.degrade_transitions += 1;
                    counters.degraded_transitions += 1;
                    obs.registry.inc(obs.c_degraded, 1);
                    obs.tracer.record(TraceEvent::Degrade {
                        user_id: user.user_id as u64,
                        degraded: true,
                    });
                }
            }
            SendStatus::Closed => return false,
        }
        if user.transport.is_stalled() && !user.degraded {
            user.degraded = true;
            user.degrade_transitions += 1;
            counters.degraded_transitions += 1;
            obs.registry.inc(obs.c_degraded, 1);
            obs.tracer.record(TraceEvent::Degrade {
                user_id: user.user_id as u64,
                degraded: true,
            });
        }
        true
    }

    /// Queues the prediction record that will be scored when the client's
    /// matching pose arrives, and advances the staleness clock.
    fn record_prediction(user: &mut UserState, predicted: Pose, quality: QualityLevel) {
        if user.has_pose {
            user.predictions.push_back(PredictionRecord {
                target_seq: user.last_pose_seq + (user.staleness_slots + PIPELINE_SLOTS) as u64,
                predicted,
                quality,
                delay_slots: ((user.staleness_slots + PIPELINE_SLOTS) as f64).min(DELAY_CAP_SLOTS),
            });
            if user.predictions.len() > MAX_PENDING_PREDICTIONS {
                user.predictions.pop_front();
            }
        }
        user.staleness_slots += 1;
    }

    /// Sends each planned user its assignment and manifest, applying the
    /// slow-client policy.
    fn transmit(&mut self) {
        if self.config.multicast {
            self.transmit_multicast();
            return;
        }
        for i in 0..self.plan_ids.len() {
            let id = self.plan_ids[i];
            let Some(user) = &mut self.users[id] else {
                continue;
            };
            let assigned = self.engine.assignment()[i];
            let quality = if user.degraded || user.bw_degraded {
                QualityLevel::MIN
            } else {
                assigned
            };
            let rate = self.engine.rates(i)[quality.index()];

            self.manifest.clear();
            self.manifest
                .extend(user.undelivered.undelivered_ids(quality));
            // Prefetched future-cell tiles ride the same manifest; the
            // client ACKs them like any other tile, which is what charges
            // the ledger.
            self.manifest.extend_from_slice(row_of(
                &self.plan_prefetch,
                &self.plan_prefetch_offsets,
                i,
            ));

            let status = user.transport.send(&ServerMessage::Assignment {
                slot: self.slot,
                pose_seq: user.last_pose_seq,
                quality: quality.get(),
                rate_mbps: rate,
                manifest: self.manifest.clone(),
            });

            if !Self::account_send(user, &mut self.counters, &mut self.obs, status) {
                continue;
            }
            Self::record_prediction(user, self.plan_predicted[i], quality);
        }
    }

    /// Multicast transmit: a singleton engine row (including every v2 or
    /// degraded user) gets the plain per-user `Assignment`; a row with
    /// two or more members encodes one `GroupAssign` per distinct
    /// delivered quality and fans the identical bytes out to every member
    /// at that quality via [`ServerTransport::send_payload`].
    fn transmit_multicast(&mut self) {
        for r in 0..self.staged_gid.len() {
            let assigned = self.engine.assignment()[r];
            let (start, end) = (self.staged_offsets[r], self.staged_offsets[r + 1]);
            if end - start == 1 {
                let i = self.staged_members[start];
                let id = self.plan_ids[i];
                let Some(user) = &mut self.users[id] else {
                    continue;
                };
                let quality = if user.degraded || user.bw_degraded {
                    QualityLevel::MIN
                } else {
                    assigned
                };
                let rate = self.engine.rates(r)[quality.index()];
                self.manifest.clear();
                self.manifest
                    .extend(user.undelivered.undelivered_ids(quality));
                // Singleton rows keep full unicast parity: the prefetch
                // extension rides here exactly as on the unicast path.
                // Grouped rows skip it — a group's payload is shared
                // bytes, while prefetch sets are per-user; the group-key
                // fingerprint covers the ledger, so once prefetch ACKs
                // diverge two users' state, they stop grouping anyway.
                self.manifest.extend_from_slice(row_of(
                    &self.plan_prefetch,
                    &self.plan_prefetch_offsets,
                    i,
                ));
                let status = user.transport.send(&ServerMessage::Assignment {
                    slot: self.slot,
                    pose_seq: user.last_pose_seq,
                    quality: quality.get(),
                    rate_mbps: rate,
                    manifest: self.manifest.clone(),
                });
                if !Self::account_send(user, &mut self.counters, &mut self.obs, status) {
                    continue;
                }
                Self::record_prediction(user, self.plan_predicted[i], quality);
            } else {
                let gid = self.staged_gid[r];
                // One encoded payload per distinct delivered quality this
                // row; members sharing a quality receive the same bytes.
                let mut encoded: Vec<(usize, Vec<u8>)> = Vec::new();
                for k in start..end {
                    let i = self.staged_members[k];
                    let cap = self.staged_caps[k];
                    let id = self.plan_ids[i];
                    let Some(user) = &mut self.users[id] else {
                        continue;
                    };
                    let q_idx = assigned.index().min(cap);
                    let quality = QualityLevel::new((q_idx + 1) as u8);
                    let at = match encoded.iter().position(|(q, _)| *q == q_idx) {
                        Some(at) => at,
                        None => {
                            // Members share ledger state by group-key
                            // construction, so any member's manifest is
                            // the group's manifest at this quality.
                            self.payload.clear();
                            ServerMessage::GroupAssign {
                                slot: self.slot,
                                group_id: gid,
                                quality: quality.get(),
                                rate_mbps: self.engine.rates(r)[q_idx],
                                manifest: user.undelivered.undelivered_ids(quality).collect(),
                            }
                            .encode(&mut self.payload);
                            encoded.push((q_idx, self.payload.clone()));
                            encoded.len() - 1
                        }
                    };
                    let status = user.transport.send_payload(&encoded[at].1);
                    if !Self::account_send(user, &mut self.counters, &mut self.obs, status) {
                        continue;
                    }
                    Self::record_prediction(user, self.plan_predicted[i], quality);
                }
            }
        }
    }
}

/// Row `i` of a flat table with offsets: entries `offsets[i]..offsets[i +
/// 1]` of `flat`, or nothing when `offsets` holds no row `i`.
fn row_of<'a, T>(flat: &'a [T], offsets: &[usize], i: usize) -> &'a [T] {
    match (offsets.get(i), offsets.get(i + 1)) {
        (Some(&start), Some(&end)) => &flat[start..end],
        _ => &[],
    }
}

/// A transport stand-in used when moving the real transport out of a
/// `retain_mut` slot; always closed, never delivers.
fn closed_placeholder() -> Box<dyn ServerTransport> {
    struct ClosedTransport;
    impl ServerTransport for ClosedTransport {
        fn try_recv(&mut self) -> Option<Result<ClientMessage, crate::protocol::WireError>> {
            None
        }
        fn send(&mut self, _message: &ServerMessage) -> SendStatus {
            SendStatus::Closed
        }
        fn send_payload(&mut self, _payload: &[u8]) -> SendStatus {
            SendStatus::Closed
        }
        fn queue_depth(&self) -> usize {
            0
        }
        fn queue_capacity(&self) -> usize {
            1
        }
        fn is_closed(&self) -> bool {
            true
        }
        fn is_stalled(&self) -> bool {
            false
        }
        fn frames_dropped(&self) -> u64 {
            0
        }
        fn close(&mut self) {}
    }
    Box::new(ClosedTransport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{loopback, ClientTransport};

    fn join_one(session: &mut Session) -> crate::transport::LoopbackClientEnd {
        let (server_end, mut client_end) = loopback(64);
        session.add_connection(Box::new(server_end));
        client_end.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            seed: 7,
        });
        client_end
    }

    #[test]
    fn hello_joins_and_welcome_arrives() {
        let mut session = Session::new(ServeConfig::default());
        let mut client = join_one(&mut session);
        session.step_slot();
        assert_eq!(session.active_users(), 1);
        assert_eq!(session.counters().joins, 1);
        let welcome = client.try_recv().unwrap().unwrap();
        assert!(matches!(
            welcome,
            ServerMessage::Welcome {
                user_id: 0,
                levels: 6,
                ..
            }
        ));
        // An assignment follows in the same slot.
        let next = client.try_recv().unwrap().unwrap();
        assert!(matches!(next, ServerMessage::Assignment { slot: 0, .. }));
    }

    #[test]
    fn version_mismatch_is_refused_as_protocol_error() {
        let mut session = Session::new(ServeConfig::default());
        let (server_end, mut client_end) = loopback(8);
        session.add_connection(Box::new(server_end));
        client_end.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION + 1,
            seed: 0,
        });
        session.step_slot();
        assert_eq!(session.active_users(), 0);
        assert_eq!(session.counters().protocol_errors, 1);
        assert!(matches!(
            client_end.try_recv(),
            Some(Ok(ServerMessage::Shutdown))
        ));
    }

    #[test]
    fn poses_feed_prediction_and_acks_shrink_manifests() {
        let mut session = Session::new(ServeConfig::default());
        let mut client = join_one(&mut session);
        session.step_slot();
        let _welcome = client.try_recv();

        // Upload a steady pose stream and ACK everything we are assigned.
        let mut first_manifest_len = None;
        let mut acked_manifest_len = None;
        for seq in 0..12u64 {
            client.send(&ClientMessage::Pose {
                seq,
                pose: Pose::default(),
            });
            client.send(&ClientMessage::BandwidthSample { mbps: 50.0 });
            session.step_slot();
            while let Some(Ok(message)) = client.try_recv() {
                if let ServerMessage::Assignment { manifest, .. } = message {
                    if first_manifest_len.is_none() {
                        first_manifest_len = Some(manifest.len());
                    } else {
                        acked_manifest_len = Some(manifest.len());
                    }
                    if !manifest.is_empty() {
                        client.send(&ClientMessage::Ack { ids: manifest });
                    }
                }
            }
        }
        // With a static pose and every tile ACKed, later manifests must be
        // empty: retransmission suppression over the wire.
        assert!(first_manifest_len.unwrap() > 0);
        assert_eq!(acked_manifest_len.unwrap(), 0);
    }

    #[test]
    fn departed_user_ids_are_never_reused() {
        let mut session = Session::new(ServeConfig::default());
        let mut first = join_one(&mut session);
        session.step_slot();
        first.send(&ClientMessage::Bye);
        session.step_slot();
        assert_eq!(session.active_users(), 0);
        // The replacement reuses the registry slot but gets a fresh ID.
        let mut second = join_one(&mut session);
        session.step_slot();
        let welcome = second.try_recv().unwrap().unwrap();
        assert!(matches!(welcome, ServerMessage::Welcome { user_id: 1, .. }));
        session.shutdown();
        let ids: Vec<_> = session.report().users.iter().map(|u| u.user_id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn bye_departs_cleanly() {
        let mut session = Session::new(ServeConfig::default());
        let mut client = join_one(&mut session);
        session.step_slot();
        client.send(&ClientMessage::Bye);
        session.step_slot();
        assert_eq!(session.active_users(), 0);
        assert_eq!(session.counters().leaves, 1);
        assert_eq!(session.counters().protocol_errors, 0);
        let report = session.report();
        assert_eq!(report.users.len(), 1);
        assert_eq!(report.users[0].seed, 7);
    }

    #[test]
    fn slow_client_degrades_to_lowest_quality_instead_of_stalling() {
        let mut session = Session::new(ServeConfig::default());
        let (server_end, mut client) = loopback(3);
        session.add_connection(Box::new(server_end));
        client.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            seed: 7,
        });
        session.step_slot();
        client.send(&ClientMessage::Pose {
            seq: 0,
            pose: Pose::default(),
        });
        // Never drain the client queue: the outbound side must fill, drop
        // old assignments, and degrade the user.
        for _ in 0..10 {
            session.step_slot();
        }
        assert!(session.counters().frames_dropped > 0);
        assert!(session.counters().degraded_transitions >= 1);
        // Draining shows the surviving assignments are pinned to quality 1
        // once degradation kicked in.
        let mut saw_degraded = false;
        while let Some(Ok(message)) = client.try_recv() {
            if let ServerMessage::Assignment { quality, .. } = message {
                saw_degraded |= quality == QualityLevel::MIN.get();
            }
        }
        assert!(saw_degraded);
    }

    #[test]
    fn lookahead_horizon_engages_and_stays_deterministic() {
        use cvr_motion::pose::{Orientation, Vec3};

        // A walking client under a declining bandwidth feed: the
        // anticipatory degrade clamps the planning estimate and the
        // prefetch pass extends manifests with future-cell tiles, so the
        // H=4 stream must differ from the myopic stream — and must be
        // bit-identical between identical runs.
        let run = |horizon: usize| {
            let mut session = Session::new(ServeConfig {
                horizon,
                ..ServeConfig::default()
            });
            let mut client = join_one(&mut session);
            session.step_slot();
            let _welcome = client.try_recv();
            let mut stream = Vec::new();
            for seq in 0..32u64 {
                let t = seq as f64;
                client.send(&ClientMessage::Pose {
                    seq,
                    pose: Pose {
                        position: Vec3::new(0.09 * t, 1.6, -0.07 * t),
                        orientation: Orientation {
                            yaw: 6.0 * t,
                            pitch: 0.0,
                            roll: 0.0,
                        },
                    },
                });
                client.send(&ClientMessage::BandwidthSample {
                    mbps: (60.0 - 1.5 * t).max(5.0),
                });
                session.step_slot();
                while let Some(Ok(message)) = client.try_recv() {
                    if let ServerMessage::Assignment {
                        slot,
                        quality,
                        rate_mbps,
                        manifest,
                        ..
                    } = message
                    {
                        stream.push((slot, quality, rate_mbps.to_bits(), manifest.clone()));
                        if !manifest.is_empty() {
                            client.send(&ClientMessage::Ack { ids: manifest });
                        }
                    }
                }
            }
            stream
        };
        let myopic = run(1);
        let lookahead = run(4);
        assert_ne!(myopic, lookahead, "H=4 must change the served stream");
        // Prefetch engaged: some manifest spans more than one cell.
        assert!(
            lookahead
                .iter()
                .any(|f| f.3.windows(2).any(|w| w[0].cell() != w[1].cell())),
            "no manifest carried a future-cell prefetch tile"
        );
        assert_eq!(lookahead, run(4));
    }

    #[test]
    fn lookahead_overlap_histograms_record_and_export() {
        let mut session = Session::new(ServeConfig {
            horizon: 3,
            ..ServeConfig::default()
        });
        let mut client = join_one(&mut session);
        session.step_slot();
        let _welcome = client.try_recv();
        for seq in 0..20u64 {
            client.send(&ClientMessage::Pose {
                seq,
                pose: Pose::default(),
            });
            client.send(&ClientMessage::BandwidthSample { mbps: 50.0 });
            session.step_slot();
            while let Some(Ok(_)) = client.try_recv() {}
        }
        assert_eq!(session.obs.h_overlap.len(), 2);
        for (i, &hid) in session.obs.h_overlap.iter().enumerate() {
            let hist = session.obs.registry.histogram_value(hid);
            assert!(
                hist.count() > 0,
                "h={} overlap histogram never recorded",
                i + 1
            );
            // A static pose makes every lookahead prediction perfect.
            assert_eq!(hist.min(), Some(TileId::COUNT as u64));
        }
        let text = session.render_metrics();
        assert!(text.contains("cvr_lookahead_fov_overlap"));
        assert!(text.contains("h=\"1\""));
        assert!(text.contains("h=\"2\""));
    }

    #[test]
    fn silent_connection_is_closed_at_the_handshake_deadline() {
        let mut session = Session::new(ServeConfig::default());
        let (server_end, mut silent) = loopback(8);
        session.add_connection(Box::new(server_end));
        for _ in 0..HANDSHAKE_DEADLINE_SLOTS {
            session.step_slot();
        }
        assert!(!silent.is_closed(), "closed before the deadline");
        assert_eq!(session.pending.len(), 1);
        session.step_slot();
        assert!(silent.is_closed(), "still open past the deadline");
        assert!(session.pending.is_empty());
        assert_eq!(session.counters().handshake_timeouts, 1);
        assert!(
            silent.try_recv().is_none(),
            "a timed-out peer gets no frames"
        );
        assert!(session
            .render_metrics()
            .contains("cvr_handshake_timeouts_total 1"));
    }

    #[test]
    fn connections_beyond_the_pending_cap_are_refused() {
        let mut session = Session::new(ServeConfig::default());
        let mut ends: Vec<_> = (0..MAX_PENDING_CONNECTIONS + 2)
            .map(|_| {
                let (server_end, client_end) = loopback(8);
                session.add_connection(Box::new(server_end));
                client_end
            })
            .collect();
        assert_eq!(session.pending.len(), MAX_PENDING_CONNECTIONS);
        assert_eq!(session.counters().pending_refused, 2);
        for refused in &mut ends[MAX_PENDING_CONNECTIONS..] {
            assert!(refused.is_closed());
            assert!(matches!(
                refused.try_recv(),
                Some(Ok(ServerMessage::Shutdown))
            ));
        }
        assert!(ends[..MAX_PENDING_CONNECTIONS]
            .iter()
            .all(|e| !e.is_closed()));
        assert!(session
            .render_metrics()
            .contains("cvr_pending_refused_total 2"));
    }

    /// An honest client's report minus its wall-clock RTT histogram:
    /// `(user_id, seed, assignments, summary)`.
    type HonestClient = (u32, u64, u64, cvr_core::qoe::UserQoeSummary);

    /// Three honest replay clients, with `attack` called before every
    /// slot to add hostile connections; returns the honest side's
    /// server and client summaries plus the final counters.
    fn honest_run(
        attack: impl Fn(&mut Session, u64, &mut Vec<crate::transport::LoopbackClientEnd>),
    ) -> (Vec<UserServerSummary>, Vec<HonestClient>, ServerCounters) {
        use crate::client::ClientConfig;
        use crate::harness::loopback_fleet;

        let configs: Vec<ClientConfig> = (0..3)
            .map(|u| ClientConfig {
                seed: 0xA77AC + u,
                ..ClientConfig::default()
            })
            .collect();
        let (mut session, mut clients) = loopback_fleet(ServeConfig::default(), &configs);
        let mut attackers = Vec::new();
        for slot in 0..HANDSHAKE_DEADLINE_SLOTS + 40 {
            attack(&mut session, slot, &mut attackers);
            for client in &mut clients {
                client.step_slot();
            }
            session.step_slot();
            session.note_tick(true, 0);
        }
        assert!(
            attackers.iter().all(|a| a.is_closed()),
            "an attacker outlived the deadline"
        );
        assert!(session.pending.is_empty());
        session.shutdown();
        let clients = clients
            .into_iter()
            .map(|c| {
                let r = c.finish();
                (r.user_id, r.seed, r.assignments, r.summary)
            })
            .collect();
        let report = session.report();
        (report.users, clients, report.counters)
    }

    #[test]
    fn silent_and_excess_connections_leave_honest_clients_bit_identical() {
        let (users, clients, counters) = honest_run(|_, _, _| {});
        assert_eq!(counters.handshake_timeouts + counters.pending_refused, 0);

        // Silent peers connecting mid-run time out; honest reports do
        // not move.
        let silent = |session: &mut Session, slot: u64, attackers: &mut Vec<_>| {
            if slot == 5 {
                for _ in 0..4 {
                    let (server_end, client_end) = loopback(8);
                    session.add_connection(Box::new(server_end));
                    attackers.push(client_end);
                }
            }
        };
        let (u, c, counters) = honest_run(silent);
        assert_eq!(counters.handshake_timeouts, 4);
        assert_eq!((u, c), (users.clone(), clients.clone()));

        // A flood past the pending cap: the excess is refused at once,
        // the rest time out; honest reports still do not move.
        let flood = |session: &mut Session, slot: u64, attackers: &mut Vec<_>| {
            if slot == 7 {
                for _ in 0..MAX_PENDING_CONNECTIONS + 3 {
                    let (server_end, client_end) = loopback(8);
                    session.add_connection(Box::new(server_end));
                    attackers.push(client_end);
                }
            }
        };
        let (u, c, counters) = honest_run(flood);
        assert_eq!(counters.pending_refused, 3);
        assert_eq!(counters.handshake_timeouts, MAX_PENDING_CONNECTIONS as u64);
        assert_eq!((u, c), (users, clients));
    }

    #[test]
    fn report_times_every_stage() {
        let mut session = Session::new(ServeConfig::default());
        let mut client = join_one(&mut session);
        for seq in 0..8u64 {
            client.send(&ClientMessage::Pose {
                seq,
                pose: Pose::default(),
            });
            session.step_slot();
            session.note_tick(true, 1_000);
        }
        let report = session.report();
        assert_eq!(report.counters.ticks, 8);
        assert_eq!(report.on_time_fraction(), 1.0);
        assert_eq!(report.ingest.count, 8);
        assert_eq!(report.transmit.count, 8);
        assert_eq!(report.build.count, 8);
        assert_eq!(report.tick.count, 8);
    }
}
