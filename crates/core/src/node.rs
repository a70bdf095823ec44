//! The per-workstation service instance.
//!
//! A [`ServiceNode`] is the sans-io heart of the leader-election service: it
//! combines the Group Maintenance module (HELLO gossip, membership), the
//! Failure Detector module (per-group [`sle_fd::FailureDetector`]s fed by
//! ALIVE messages) and the Leader Election Algorithm module (one
//! [`sle_election::AnyElector`] per group), exactly mirroring the architecture of the
//! paper's Figure 2. It implements [`sle_sim::Actor`], so the same code runs
//! under the discrete-event simulator (for the evaluation) and under the
//! real-time runtime in [`crate::runtime`] (for applications).

use sle_adaptive::Tuner;
use sle_election::{ElectorKind, ElectorOutput, LeaderElector};
use sle_fd::{FdParams, LivenessHandle, MonitorArena, Transition};
use sle_sim::actor::{Actor, Context, NodeId, TimerTag};
use sle_sim::time::{SimDuration, SimInstant};

use std::collections::BTreeMap;

use crate::config::{JoinConfig, ServiceConfig};
use crate::error::ServiceError;
use crate::events::ServiceEvent;
use crate::group::GroupState;
use crate::lease::{FencedApp, FencingToken, LeaderLease};
use crate::messages::{AliveHeader, GroupAlive, GroupAnnouncement, ServiceMessage};
use crate::obs::NodeInstruments;
use crate::process::{GroupId, ProcessId};

/// Timer used for periodic HELLO gossip and membership expiry.
const HELLO_TIMER: TimerTag = TimerTag(0);
/// Timer-tag namespace of the per-node ALIVE tick.
const ALIVE_KIND: u64 = 1;
/// Timer-tag namespace for per-group failure-detector deadlines.
const FD_KIND: u64 = 2;
/// Timer-tag namespace for the end of the self-election grace period.
pub(crate) const GRACE_KIND: u64 = 3;
/// Timer-tag namespace for periodic QoS re-derivation (adaptive tuning).
const TUNE_KIND: u64 = 4;

/// The single per-node ALIVE tick: it fires at the earliest `next_alive_at`
/// across all groups and fans out for every group that is due, however many
/// groups the node participates in. (Historically every group armed its own
/// timer here — O(groups) pending timers per node.)
const ALIVE_TIMER: TimerTag = TimerTag(ALIVE_KIND << 32);

/// Encoded-size budget for one batched ALIVE datagram. Stays safely under
/// `sle-wire`'s `MAX_DATAGRAM` (1400 bytes minus the frame header), so a
/// node in very many groups splits its fan-out into several datagrams
/// rather than producing one the transport must reject.
const MAX_ALIVE_BATCH_BYTES: usize = 1200;

fn fd_tag(group: GroupId) -> TimerTag {
    TimerTag(FD_KIND << 32 | group.0 as u64)
}

fn grace_tag(group: GroupId) -> TimerTag {
    TimerTag(GRACE_KIND << 32 | group.0 as u64)
}

fn tune_tag(group: GroupId) -> TimerTag {
    TimerTag(TUNE_KIND << 32 | group.0 as u64)
}

/// Dense per-group storage: group ids are interned into `u32` slots on
/// first join, a sorted `(id, slot)` index maps ids to slots, and the
/// states live in a contiguous slot vector. Lookups are binary searches
/// over the index, iteration follows the index (ascending group id, so the
/// ALIVE fan-out and membership sweeps stay deterministic), and slots
/// vacated by `remove` are recycled through a free list.
#[derive(Debug, Default)]
struct GroupTable {
    index: Vec<(u32, u32)>,
    slots: Vec<Option<GroupState>>,
    free: Vec<u32>,
}

impl GroupTable {
    #[inline]
    fn find(&self, group: GroupId) -> Result<usize, usize> {
        self.index.binary_search_by_key(&group.0, |&(id, _)| id)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn get(&self, group: GroupId) -> Option<&GroupState> {
        let i = self.find(group).ok()?;
        self.slots[self.index[i].1 as usize].as_ref()
    }

    fn get_mut(&mut self, group: GroupId) -> Option<&mut GroupState> {
        match self.find(group) {
            Ok(i) => {
                let slot = self.index[i].1 as usize;
                self.slots[slot].as_mut()
            }
            Err(_) => None,
        }
    }

    fn get_or_insert_with(
        &mut self,
        group: GroupId,
        make: impl FnOnce() -> GroupState,
    ) -> &mut GroupState {
        let slot = match self.find(group) {
            Ok(i) => self.index[i].1 as usize,
            Err(i) => {
                let state = make();
                let slot = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize] = Some(state);
                        s as usize
                    }
                    None => {
                        self.slots.push(Some(state));
                        self.slots.len() - 1
                    }
                };
                self.index.insert(i, (group.0, slot as u32));
                slot
            }
        };
        self.slots[slot].as_mut().expect("indexed slot is live")
    }

    fn remove(&mut self, group: GroupId) -> Option<GroupState> {
        match self.find(group) {
            Ok(i) => {
                let (_, slot) = self.index.remove(i);
                self.free.push(slot);
                self.slots[slot as usize].take()
            }
            Err(_) => None,
        }
    }

    /// Group ids in ascending order.
    fn ids(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.index.iter().map(|&(id, _)| GroupId(id))
    }

    /// Group states in ascending group-id order.
    fn iter(&self) -> impl Iterator<Item = &GroupState> + '_ {
        self.index.iter().map(move |&(_, slot)| {
            self.slots[slot as usize]
                .as_ref()
                .expect("indexed slot is live")
        })
    }

    /// The `(id, slot)` pair at position `i` of the sorted index.
    fn pair(&self, i: usize) -> (GroupId, u32) {
        let (id, slot) = self.index[i];
        (GroupId(id), slot)
    }

    /// The state living in `slot` (which must be indexed).
    fn slot_mut(&mut self, slot: u32) -> &mut GroupState {
        self.slots[slot as usize]
            .as_mut()
            .expect("indexed slot is live")
    }
}

/// Node-level per-peer state, interned into dense `u32` slots on first
/// contact.
///
/// Entries are deliberately never removed. The sequence counter must
/// survive group churn (see the field comment on the counter below), and
/// the cached [`LivenessHandle`] turns the per-datagram arena lock of the
/// hot receive path into one binary search over this slab. Retention is
/// bounded by the workstation universe — destinations are configured
/// peers — not by churn.
#[derive(Debug)]
struct PeerEntry {
    /// Highest incarnation observed from the peer; `None` until the first
    /// incarnation-carrying message arrives.
    incarnation: Option<u64>,
    /// Next node-level ALIVE sequence number towards the peer: one
    /// heartbeat stream per peer link, whichever groups ride on it.
    ///
    /// Never reset: a receiver — even a freshly restarted one — may have
    /// already recorded a few of our high pre-reset sequence numbers, and
    /// a stream restarting at 0 then reads as catastrophic loss on its
    /// link estimator, cranking the requested heartbeat rate to the floor.
    node_seq: u64,
    /// Cached handle to the peer's shared liveness record in the
    /// workstation arena; keeps the hot path off the arena mutex.
    liveness: LivenessHandle,
}

#[derive(Debug, Default)]
struct PeerSlab {
    /// Sorted `(peer id, slot)` index into `entries`.
    index: Vec<(u32, u32)>,
    entries: Vec<PeerEntry>,
}

impl PeerSlab {
    /// The slot for `peer`, creating its entry (and its arena record) on
    /// first contact.
    fn intern(&mut self, peer: NodeId, arena: &MonitorArena) -> usize {
        match self.index.binary_search_by_key(&peer.0, |&(id, _)| id) {
            Ok(i) => self.index[i].1 as usize,
            Err(i) => {
                let slot = self.entries.len();
                self.entries.push(PeerEntry {
                    incarnation: None,
                    node_seq: 0,
                    liveness: arena.slot(peer),
                });
                self.index.insert(i, (peer.0, slot as u32));
                slot
            }
        }
    }
}

/// The context type used by the service.
pub type ServiceContext = Context<ServiceMessage, ServiceEvent>;

/// One leader-election service instance (one per workstation).
#[derive(Debug)]
pub struct ServiceNode {
    config: ServiceConfig,
    incarnation: u64,
    next_local_process: u32,
    registered: BTreeMap<u32, ProcessId>,
    /// Per-group state in dense slots, indexed by interned group id.
    groups: GroupTable,
    /// Node-level per-peer state (incarnation, heartbeat sequence, cached
    /// liveness handle) in dense slots, indexed by interned peer id.
    peers: PeerSlab,
    /// The workstation-wide liveness arena: one link estimate per peer,
    /// shared by every group's failure detector (paper Figure 2's single
    /// Failure Detector module per workstation).
    arena: MonitorArena,
    /// Reusable per-peer-slot ALIVE assembly buffers (parallel to the
    /// `peers` slots); drained by every tick, so steady-state fan-out
    /// allocates nothing beyond the outgoing messages themselves.
    alive_scratch: Vec<Vec<GroupAlive>>,
    /// `(peer id, peer slot)` pairs touched by the current ALIVE tick;
    /// sorted by id before flushing so datagrams leave in deterministic
    /// destination order.
    scratch_touched: Vec<(u32, u32)>,
    /// Groups found due on the current ALIVE tick (reused across ticks).
    due_scratch: Vec<GroupId>,
    /// How many current groups run an adaptive tuner; when zero (the
    /// default, paper-faithful configuration) the per-datagram tuner
    /// fan-out in `note_alive_datagram` is skipped entirely.
    adaptive_groups: usize,
    /// Per-group ALIVE payloads handed to the transport (batch entries
    /// count individually). A live counter handle so that attaching
    /// instruments makes it a registry view instead of a second account.
    alive_payloads_sent: sle_obs::Counter,
    /// ALIVE datagrams handed to the transport (a batch counts once).
    alive_datagrams_sent: sle_obs::Counter,
    /// Live QoS instruments and protocol trace, when attached by the
    /// driving runtime ([`ServiceNode::set_instruments`]). `None` — the
    /// default — costs one branch per instrumentation point.
    obs: Option<NodeInstruments>,
    /// The fenced state machine served while this node leads a group with a
    /// valid lease ([`ServiceNode::install_app`]).
    app: Option<Box<dyn FencedApp>>,
    /// Whether the ALIVE tick broadcasts `LeaseGrant`s for held leases.
    /// Enabled by [`ServiceNode::install_app`], so deployments without an
    /// application tier pay no extra traffic.
    lease_broadcast: bool,
    /// ACCUSE messages dropped because their epoch predates the elector's
    /// current one (a duplicated or delayed replay).
    stale_accusations_ignored: sle_obs::Counter,
    /// Leader leases minted (a new token taking effect).
    leases_minted: sle_obs::Counter,
    /// Lease renewals performed on the ALIVE tick.
    lease_renewals: sle_obs::Counter,
    /// Client requests applied by the installed app.
    requests_applied: sle_obs::Counter,
    /// Client requests the installed app rejected as stale-fenced.
    requests_rejected: sle_obs::Counter,
    /// Client requests answered with a redirect instead of being served.
    requests_redirected: sle_obs::Counter,
}

impl ServiceNode {
    /// Creates a service instance from its configuration.
    pub fn new(config: ServiceConfig) -> Self {
        ServiceNode {
            config,
            incarnation: 0,
            next_local_process: 0,
            registered: BTreeMap::new(),
            groups: GroupTable::default(),
            peers: PeerSlab::default(),
            arena: MonitorArena::new(),
            alive_scratch: Vec::new(),
            scratch_touched: Vec::new(),
            due_scratch: Vec::new(),
            adaptive_groups: 0,
            alive_payloads_sent: sle_obs::Counter::new(),
            alive_datagrams_sent: sle_obs::Counter::new(),
            obs: None,
            app: None,
            lease_broadcast: false,
            stale_accusations_ignored: sle_obs::Counter::new(),
            leases_minted: sle_obs::Counter::new(),
            lease_renewals: sle_obs::Counter::new(),
            requests_applied: sle_obs::Counter::new(),
            requests_rejected: sle_obs::Counter::new(),
            requests_redirected: sle_obs::Counter::new(),
        }
    }

    /// Attaches live observability instruments: QoS histograms recorded
    /// under this node's registry names, protocol events pushed into the
    /// given trace ring, and the node's own traffic counters bound into the
    /// registry as views. Runtimes call this right after construction;
    /// without it, every instrumentation point is a single `None` branch.
    pub fn set_instruments(&mut self, instruments: NodeInstruments) {
        instruments.bind_node_counter("net.alive_payloads_sent", &self.alive_payloads_sent);
        instruments.bind_node_counter("net.alive_datagrams_sent", &self.alive_datagrams_sent);
        instruments.bind_node_counter(
            "elect.stale_accusations_ignored",
            &self.stale_accusations_ignored,
        );
        instruments.bind_node_counter("app.leases_minted", &self.leases_minted);
        instruments.bind_node_counter("app.lease_renewals", &self.lease_renewals);
        instruments.bind_node_counter("app.requests_applied", &self.requests_applied);
        instruments.bind_node_counter("app.requests_rejected", &self.requests_rejected);
        instruments.bind_node_counter("app.requests_redirected", &self.requests_redirected);
        self.obs = Some(instruments);
    }

    /// The attached instruments, if any.
    pub fn instruments(&self) -> Option<&NodeInstruments> {
        self.obs.as_ref()
    }

    /// Installs the fenced state machine this node serves while leading.
    ///
    /// Installing an app also enables `LeaseGrant` broadcasts on the ALIVE
    /// tick, so the other members' apps learn new fencing tokens promptly.
    pub fn install_app(&mut self, app: Box<dyn FencedApp>) {
        self.app = Some(app);
        self.lease_broadcast = true;
    }

    /// Whether a fenced state machine is installed.
    pub fn has_app(&self) -> bool {
        self.app.is_some()
    }

    /// The lease this node currently holds as the leader of `group`.
    pub fn lease_of(&self, group: GroupId) -> Option<LeaderLease> {
        self.groups.get(group)?.lease
    }

    /// The fencing token of this node's current leadership of `group`.
    pub fn fencing_token(&self, group: GroupId) -> Option<FencingToken> {
        Some(self.lease_of(group)?.token)
    }

    /// The most recent lease heard from a remote leader of `group` (its
    /// `renewed_at` is the local receipt time).
    pub fn remote_lease_of(&self, group: GroupId) -> Option<LeaderLease> {
        self.groups.get(group)?.remote_lease
    }

    /// ACCUSE messages dropped because their epoch predated the elector's
    /// current one — each is a duplicated or delayed replay that would have
    /// destabilised a settled leader before the stale-epoch guard existed.
    pub fn stale_accusations_ignored(&self) -> u64 {
        self.stale_accusations_ignored.get()
    }

    /// Client requests served by the installed app under a valid lease.
    pub fn client_requests_applied(&self) -> u64 {
        self.requests_applied.get()
    }

    /// Client requests the installed app rejected for a stale fencing token.
    pub fn client_requests_rejected(&self) -> u64 {
        self.requests_rejected.get()
    }

    /// Client requests answered with a redirect (not leading, no valid
    /// lease, or no app installed).
    pub fn client_requests_redirected(&self) -> u64 {
        self.requests_redirected.get()
    }

    /// Leader leases minted (leaderships taken, or token changes while
    /// leading).
    pub fn leases_minted(&self) -> u64 {
        self.leases_minted.get()
    }

    /// This workstation's identity.
    pub fn node_id(&self) -> NodeId {
        self.config.node
    }

    /// The leader-election algorithm this instance runs.
    pub fn algorithm(&self) -> ElectorKind {
        self.config.algorithm
    }

    /// The groups this instance currently participates in.
    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.groups.ids()
    }

    /// Number of peers with a live record in the workstation's shared
    /// liveness arena (after pruning records no group monitors any more).
    ///
    /// The node itself caches one handle per peer it ever exchanged
    /// heartbeats with, so the floor is the contacted-peer universe — group
    /// churn on top of it must neither grow the count nor reclaim a record
    /// a surviving group still uses.
    pub fn monitored_peer_count(&self) -> usize {
        self.arena.peer_count()
    }

    /// The current leader of `group` as seen by this instance (the "query"
    /// notification style of the paper).
    pub fn leader_of(&self, group: GroupId) -> Option<ProcessId> {
        let state = self.groups.get(group)?;
        state.leader_process(self.config.node, state.elector.leader())
    }

    /// Whether this node is currently competing (sending ALIVEs) in `group`.
    pub fn is_competing(&self, group: GroupId) -> bool {
        self.groups
            .get(group)
            .map(|g| g.should_send_alives())
            .unwrap_or(false)
    }

    /// The application processes of this workstation currently joined to
    /// `group`, in registration order.
    ///
    /// This is how external drivers (the chaos harness's mid-run
    /// leave/rejoin churn, management tooling) discover what there is to
    /// leave without keeping their own books.
    pub fn local_members_of(&self, group: GroupId) -> Vec<ProcessId> {
        self.groups
            .get(group)
            .map(|state| {
                state
                    .local_processes
                    .iter()
                    .map(|&(local, _)| ProcessId::new(self.config.node, local))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Registers a new application process with this service instance and
    /// returns its identifier.
    pub fn register_process(&mut self) -> ProcessId {
        let local = self.next_local_process;
        self.next_local_process += 1;
        let process = ProcessId::new(self.config.node, local);
        self.registered.insert(local, process);
        process
    }

    /// Joins `process` to `group` with the given parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::ForeignProcess`] if the process belongs to a
    /// different workstation, or [`ServiceError::UnknownProcess`] if it was
    /// never registered here.
    pub fn join_group(
        &mut self,
        process: ProcessId,
        group: GroupId,
        join: JoinConfig,
        ctx: &mut ServiceContext,
    ) -> Result<(), ServiceError> {
        if process.node != self.config.node {
            return Err(ServiceError::ForeignProcess(process));
        }
        if !self.registered.contains_key(&process.local) {
            return Err(ServiceError::UnknownProcess(process));
        }
        let me = self.config.node;
        let algorithm = self.config.algorithm;
        let now = ctx.now();
        let arena = &self.arena;
        let adaptive_groups = &mut self.adaptive_groups;
        let state = self.groups.get_or_insert_with(group, || {
            let state = GroupState::new(group, me, algorithm, &join, arena, now);
            if state.tuner.is_adaptive() {
                *adaptive_groups += 1;
            }
            state
        });
        state.upsert_local_process(process.local, join.candidate);
        state.notification = join.notification;
        // Upgrading to candidate after having joined as a listener requires a
        // fresh elector (the accusation time starts now — a newcomer rank).
        // The accusation epoch must NOT restart: epochs already advertised on
        // the wire would become current again, letting a replayed old ACCUSE
        // demote this node after it re-won — and breaking fencing-token
        // monotonicity. Start one above the old elector's epoch instead.
        if join.candidate && !state.elector.is_candidate() {
            state.elector = sle_election::AnyElector::new_with_epoch(
                algorithm,
                me,
                true,
                now,
                state.elector.epoch() + 1,
            );
        }
        state.next_alive_at = now + SimDuration::from_millis(5);
        let grace_ends = state.joined_at + state.self_election_grace();
        ctx.set_timer_at(grace_tag(group), grace_ends);
        if let Some(period) = state.tuner.period() {
            ctx.set_timer_after(tune_tag(group), period);
        }
        if let Some(obs) = &mut self.obs {
            obs.on_join(group, now);
        }
        self.arm_alive_timer(ctx);
        self.arm_fd_timer(group, ctx);
        self.send_group_hello(group, ctx);
        self.check_leader(group, ctx);
        Ok(())
    }

    /// Removes `process` from `group`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NotJoined`] if the process is not currently a
    /// member of the group on this workstation.
    pub fn leave_group(
        &mut self,
        process: ProcessId,
        group: GroupId,
        ctx: &mut ServiceContext,
    ) -> Result<(), ServiceError> {
        let me = self.config.node;
        let algorithm = self.config.algorithm;
        let state = self
            .groups
            .get_mut(group)
            .ok_or(ServiceError::NotJoined(process, group))?;
        if !state.remove_local_process(process.local) {
            return Err(ServiceError::NotJoined(process, group));
        }
        // Tell the other members explicitly so they do not need to wait for
        // the membership timeout.
        for peer in state.members.peers() {
            ctx.send(peer, ServiceMessage::Leave { group, process });
        }
        if state.local_processes.is_empty() {
            if let Some(removed) = self.groups.remove(group) {
                if removed.tuner.is_adaptive() {
                    self.adaptive_groups -= 1;
                }
            }
            ctx.cancel_timer(fd_tag(group));
            ctx.cancel_timer(tune_tag(group));
            self.arm_alive_timer(ctx);
        } else if !state.locally_candidate() && state.elector.is_candidate() {
            // The last local candidate left: stop competing. As on the
            // listener→candidate upgrade, preserve the accusation epoch so
            // replayed accusations from the candidate life stay stale.
            state.elector = sle_election::AnyElector::new_with_epoch(
                algorithm,
                me,
                false,
                ctx.now(),
                state.elector.epoch() + 1,
            );
            self.check_leader(group, ctx);
        }
        if let Some(obs) = &mut self.obs {
            obs.on_leave(group, ctx.now());
        }
        self.send_hellos(ctx);
        Ok(())
    }

    fn send_hellos(&mut self, ctx: &mut ServiceContext) {
        let announcements: std::sync::Arc<[GroupAnnouncement]> = self
            .groups
            .iter()
            .map(|state| GroupAnnouncement {
                group: state.group,
                processes: state
                    .local_processes
                    .iter()
                    .map(|&(local, candidate)| (ProcessId::new(self.config.node, local), candidate))
                    .collect(),
            })
            .collect();
        self.fan_out_hello(announcements, ctx);
    }

    /// Sends a HELLO announcing only `group` — the prompt-discovery message
    /// a fresh join emits. A node joining many groups in one burst would
    /// otherwise fan out the *full* announcement list per join (quadratic in
    /// the group count); the periodic full HELLO still re-announces
    /// everything within one interval.
    fn send_group_hello(&mut self, group: GroupId, ctx: &mut ServiceContext) {
        let Some(state) = self.groups.get(group) else {
            return;
        };
        let announcements: std::sync::Arc<[GroupAnnouncement]> =
            std::sync::Arc::from([GroupAnnouncement {
                group,
                processes: state
                    .local_processes
                    .iter()
                    .map(|&(local, candidate)| (ProcessId::new(self.config.node, local), candidate))
                    .collect(),
            }]);
        self.fan_out_hello(announcements, ctx);
    }

    fn fan_out_hello(
        &mut self,
        announcements: std::sync::Arc<[GroupAnnouncement]>,
        ctx: &mut ServiceContext,
    ) {
        let msg = ServiceMessage::Hello {
            incarnation: self.incarnation,
            sent_at: ctx.now(),
            announcements,
        };
        for peer in self.config.remote_peers().collect::<Vec<_>>() {
            ctx.send(peer, msg.clone());
        }
    }

    /// Re-arms the per-node ALIVE tick at the earliest `next_alive_at`
    /// across all groups (or cancels it when the node is in no group).
    fn arm_alive_timer(&self, ctx: &mut ServiceContext) {
        match self.groups.iter().map(|s| s.next_alive_at).min() {
            Some(at) => ctx.set_timer_at(ALIVE_TIMER, at),
            None => ctx.cancel_timer(ALIVE_TIMER),
        }
    }

    /// The per-node ALIVE tick: fans out heartbeats for every group that is
    /// due, coalescing the entries bound for the same destination into one
    /// batched datagram (split only at the transport's size budget).
    fn handle_alive_tick(&mut self, ctx: &mut ServiceContext) {
        let me = self.config.node;
        let incarnation = self.incarnation;
        let now = ctx.now();
        // Gather the due per-(destination, group) entries into the per-peer
        // scratch buffers. Groups are visited in ascending group id (the
        // dense index is sorted) and destinations flushed in ascending peer
        // id below, so the fan-out order stays deterministic; the buffers
        // are reused across ticks, so the steady state allocates only the
        // outgoing messages themselves.
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        for gi in 0..self.groups.len() {
            let (group, gslot) = self.groups.pair(gi);
            let state = self.groups.slot_mut(gslot);
            if state.next_alive_at > now {
                continue;
            }
            due.push(group);
            let interval = state.send_interval();
            // Always advance the due time so a node that re-enters the
            // competition resumes sending within one interval — and snap it
            // to the node-wide grid of this interval (multiples of the
            // interval since the node started), so groups joined at
            // staggered times converge onto a shared phase after their
            // first send and heartbeats bound for the same peer keep
            // sharing datagrams. The gap between consecutive sends never
            // exceeds one interval, so receivers' freshness horizons are
            // unaffected.
            let step = interval.as_nanos().max(1);
            state.next_alive_at = SimInstant::from_nanos((now.as_nanos() / step + 1) * step);
            if !state.should_send_alives() {
                continue;
            }
            // Holding a lease and still sending ALIVEs is the leader's
            // liveness evidence: renew for another T_D. A crashed leader
            // stops ticking, so its last lease dies within T_D — before any
            // survivor's detector can complete and elect a successor.
            if let Some(lease) = &mut state.lease {
                lease.renewed_at = now;
                self.lease_renewals.inc();
                if self.lease_broadcast {
                    let grant = ServiceMessage::LeaseGrant {
                        group,
                        token: lease.token,
                        valid_for: lease.ttl,
                    };
                    for dest in state.members.peers() {
                        ctx.send(dest, grant.clone());
                    }
                }
            }
            let payload = state.elector.alive_payload();
            let representative = state
                .local_representative(me)
                .unwrap_or_else(|| ProcessId::new(me, 0));
            for member in state.members.iter() {
                let dest = member.peer;
                let requested = state
                    .fd
                    .requested_interval(dest)
                    .unwrap_or_else(|| state.qos.detection_time().mul_f64(0.25));
                let pslot = self.peers.intern(dest, &self.arena);
                if self.alive_scratch.len() <= pslot {
                    self.alive_scratch.resize_with(pslot + 1, Vec::new);
                }
                let bucket = &mut self.alive_scratch[pslot];
                if bucket.is_empty() {
                    self.scratch_touched.push((dest.0, pslot as u32));
                }
                bucket.push(GroupAlive {
                    group,
                    sending_interval: interval,
                    requested_interval: requested,
                    payload,
                    representative,
                });
            }
        }
        // Flush per destination, in ascending peer id. Each chunk is one
        // datagram with its own node-level sequence number, split at the
        // transport's size budget.
        let mut touched = std::mem::take(&mut self.scratch_touched);
        touched.sort_unstable_by_key(|&(id, _)| id);
        for &(dest_id, pslot) in &touched {
            let dest = NodeId(dest_id);
            let pslot = pslot as usize;
            let mut alives = std::mem::take(&mut self.alive_scratch[pslot]);
            let mut chunk: Vec<GroupAlive> = Vec::new();
            let mut chunk_bytes = 0usize;
            for entry in alives.drain(..) {
                let entry_bytes = entry.wire_size();
                if chunk_bytes + entry_bytes > MAX_ALIVE_BATCH_BYTES && !chunk.is_empty() {
                    self.flush_alive_chunk(dest, pslot, incarnation, now, &mut chunk, ctx);
                    chunk_bytes = 0;
                }
                chunk_bytes += entry_bytes;
                chunk.push(entry);
            }
            self.flush_alive_chunk(dest, pslot, incarnation, now, &mut chunk, ctx);
            // Hand the (now empty) buffer's capacity back to the scratch.
            self.alive_scratch[pslot] = alives;
        }
        touched.clear();
        self.scratch_touched = touched;
        // The settle-delayed mint is time-triggered, not event-triggered:
        // without this sweep a leader whose elector went quiet after the
        // last leadership change would hold the output but never re-check,
        // and the delayed mint would starve until the next elector event.
        for &group in &due {
            self.check_leader(group, ctx);
        }
        due.clear();
        self.due_scratch = due;
        self.arm_alive_timer(ctx);
    }

    /// Sends one assembled ALIVE chunk to `dest` (peer slot `pslot`),
    /// consuming the chunk and stamping it with the next node-level
    /// sequence number of the destination's heartbeat stream.
    fn flush_alive_chunk(
        &mut self,
        dest: NodeId,
        pslot: usize,
        incarnation: u64,
        now: SimInstant,
        chunk: &mut Vec<GroupAlive>,
        ctx: &mut ServiceContext,
    ) {
        if chunk.is_empty() {
            return;
        }
        let seq = {
            let entry = &mut self.peers.entries[pslot];
            let seq = entry.node_seq;
            entry.node_seq += 1;
            seq
        };
        self.alive_datagrams_sent.inc();
        self.alive_payloads_sent.add(chunk.len() as u64);
        if chunk.len() == 1 {
            let entry = chunk.pop().expect("chunk has one entry");
            ctx.send(
                dest,
                ServiceMessage::Alive {
                    group: entry.group,
                    header: AliveHeader {
                        incarnation,
                        seq,
                        sent_at: now,
                        sending_interval: entry.sending_interval,
                        requested_interval: entry.requested_interval,
                    },
                    payload: entry.payload,
                    representative: entry.representative,
                },
            );
        } else {
            ctx.send(
                dest,
                ServiceMessage::AliveBatch {
                    incarnation,
                    seq,
                    sent_at: now,
                    alives: std::mem::take(chunk),
                },
            );
        }
    }

    /// Per-group ALIVE payloads handed to the transport so far (batch
    /// entries count individually) — the figure the paper's message-count
    /// analysis is about: O(n) per group in steady state for S3, O(n²)
    /// for S2.
    pub fn alive_payloads_sent(&self) -> u64 {
        self.alive_payloads_sent.get()
    }

    /// ALIVE datagrams handed to the transport so far (a batch counts
    /// once); `alive_payloads_sent - alive_datagrams_sent` is the fan-out
    /// the batching saved.
    pub fn alive_datagrams_sent(&self) -> u64 {
        self.alive_datagrams_sent.get()
    }

    fn arm_fd_timer(&mut self, group: GroupId, ctx: &mut ServiceContext) {
        if let Some(state) = self.groups.get_mut(group) {
            if let Some(deadline) = state.fd.next_deadline() {
                // Heartbeats *extend* freshness horizons, so re-arming on
                // every arrival would supersede (but not remove — the wheel
                // cancels lazily) the previous entry, flooding the event
                // queue with stale pops. Keep the earlier timer and let it
                // fire as a cheap no-op poll instead.
                if state.armed_fd_deadline.is_some_and(|at| at <= deadline) {
                    return;
                }
                state.armed_fd_deadline = Some(deadline);
                ctx.set_timer_at(fd_tag(group), deadline);
            }
        }
    }

    fn check_leader(&mut self, group: GroupId, ctx: &mut ServiceContext) {
        let me = self.config.node;
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let mut leader = state.leader_process(me, state.elector.leader());
        // A freshly (re)joined candidate does not claim the leadership for
        // itself until the grace period elapses: it first listens for an
        // incumbent leader, which keeps rejoining workstations from briefly
        // disrupting the group's agreement.
        if let Some(claimed) = leader {
            if claimed.node == me && now < state.joined_at + state.self_election_grace() {
                leader = None;
            }
        }
        // Lease upkeep: mint on taking the leadership (and whenever the
        // elector's rank or epoch moved, which changes the token), drop on
        // losing it. Renewals ride the ALIVE tick.
        let leads = leader.is_some_and(|l| l.node == me);
        if leads {
            // Settle delay: only a node that has led *continuously* for one
            // lease term (`T_D`) mints. A transient claimant yields before
            // the delay elapses and never serves, and by the time a genuine
            // successor starts serving, the deposed leader's lease (TTL
            // `T_D`, no longer renewed) has already lapsed — so two leases
            // are never simultaneously valid.
            let led_since = *state.led_since.get_or_insert(now);
            if now >= led_since + state.qos.detection_time() {
                let natural = FencingToken {
                    accusation_time: state.elector.accusation_time(),
                    node: me,
                    epoch: state.elector.epoch(),
                    incarnation: self.incarnation,
                };
                // The issued token must strictly dominate every token this node
                // has granted or observed for the group. A transiently
                // self-elected claimant broadcasts a token that orders *above*
                // ours (its later accusation time is a worse rank but a higher
                // token); unless the rightful leader out-mints it after the
                // claimant yields, every app that observed the claimant's grant
                // would fence-reject the rightful leader's writes forever.
                let observed = state.remote_lease.as_ref().map(|l| l.token);
                let needs_mint = match &state.lease {
                    None => true,
                    Some(lease) => {
                        natural > lease.token
                            || (natural.epoch, natural.incarnation)
                                != (lease.token.epoch, lease.token.incarnation)
                            || observed.is_some_and(|o| o >= lease.token)
                    }
                };
                if needs_mint {
                    let mut token = natural;
                    for floor in [state.lease.as_ref().map(|l| l.token), observed]
                        .into_iter()
                        .flatten()
                    {
                        if token <= floor {
                            token.accusation_time =
                                floor.accusation_time + SimDuration::from_nanos(1);
                        }
                    }
                    state.lease = Some(LeaderLease {
                        token,
                        renewed_at: now,
                        ttl: state.qos.detection_time(),
                    });
                    self.leases_minted.inc();
                }
            }
        } else {
            state.lease = None;
            state.led_since = None;
        }
        if leader != state.announced_leader {
            state.announced_leader = leader;
            if let Some(obs) = &mut self.obs {
                obs.on_leader_change(group, leader, now);
            }
            ctx.emit(ServiceEvent::LeaderChanged { group, leader });
        }
    }

    /// Handles a possibly new incarnation of `peer`: if the peer restarted,
    /// all state learnt from its previous life is discarded.
    fn note_peer_incarnation(&mut self, peer: NodeId, incarnation: u64, ctx: &mut ServiceContext) {
        let slot = self.peers.intern(peer, &self.arena);
        let known = self.peers.entries[slot].incarnation;
        match known {
            Some(k) if incarnation <= k => return,
            _ => {}
        }
        self.peers.entries[slot].incarnation = Some(incarnation);
        if known.is_none() {
            // First contact with this peer: nothing to reset.
            return;
        }
        let now = ctx.now();
        let groups: Vec<GroupId> = self.groups.ids().collect();
        for group in groups {
            let Some(state) = self.groups.get_mut(group) else {
                continue;
            };
            if state.members.remove(peer).is_some() {
                state.elector.remove_peer(peer, now);
                state.fd.reset_peer(peer, now);
                state.tuner.forget_peer(peer);
                self.check_leader(group, ctx);
            }
        }
    }

    fn handle_hello(
        &mut self,
        from: NodeId,
        incarnation: u64,
        announcements: std::sync::Arc<[GroupAnnouncement]>,
        ctx: &mut ServiceContext,
    ) {
        self.note_peer_incarnation(from, incarnation, ctx);
        let now = ctx.now();
        for announcement in announcements.iter() {
            let group = announcement.group;
            let Some(state) = self.groups.get_mut(group) else {
                continue;
            };
            let has_candidate = announcement.processes.iter().any(|(_, c)| *c);
            let created = state.members.get(from).is_none();
            let member = state.members.ensure(from, incarnation, now);
            // Steady-state fast path: the sender re-announces the same
            // incarnation and process list every HELLO interval. When
            // nothing derived can change — the advertised representative
            // (if any) already matches what this list would resolve to —
            // the refreshed `last_heard` is the whole effect.
            let fallback_representative = announcement
                .processes
                .iter()
                .filter(|(_, candidate)| *candidate)
                .map(|(process, _)| *process)
                .min();
            if !created
                && member.incarnation == incarnation
                && member.processes == announcement.processes
                && (member.representative.is_none()
                    || member.representative == fallback_representative)
            {
                if state.armed_fd_deadline.is_none() {
                    self.arm_fd_timer(group, ctx);
                }
                continue;
            }
            member.incarnation = incarnation;
            member.processes = announcement.processes.clone();
            // A HELLO's process list supersedes any representative a
            // previous ALIVE advertised; consumers fall back to the first
            // announced candidate (`MemberEntry::representative_process`).
            member.representative = None;
            if has_candidate {
                state.fd.ensure_peer(from, now);
            }
            self.arm_fd_timer(group, ctx);
            self.check_leader(group, ctx);
        }
    }

    fn handle_alive(
        &mut self,
        from: NodeId,
        group: GroupId,
        header: AliveHeader,
        payload: sle_election::AlivePayload,
        representative: ProcessId,
        ctx: &mut ServiceContext,
    ) {
        self.note_peer_incarnation(from, header.incarnation, ctx);
        self.note_alive_datagram(from, header.seq, header.sent_at, ctx.now());
        self.apply_group_alive(from, group, header, payload, representative, ctx);
    }

    /// Node-level accounting of one incoming ALIVE datagram, before the
    /// per-group dispatch. The heartbeat sequence is a *node-level*
    /// per-destination stream, so every consumer of sequence numbers must
    /// see every datagram of the stream, not just the subset carrying its
    /// own group — a group observing a sparser view would infer phantom
    /// loss from the sequence numbers consumed by its siblings (or, after
    /// a lost LEAVE, by groups this node is no longer even in). The shared
    /// arena records the sample once (the per-group monitors' recordings
    /// dedup against it), and every adaptive tuner monitoring the sender
    /// gets the full stream.
    fn note_alive_datagram(
        &mut self,
        from: NodeId,
        seq: u64,
        sent_at: SimInstant,
        now: SimInstant,
    ) {
        // The slab's cached handle keeps this off the arena mutex: one
        // binary search per datagram instead of a lock plus a map walk.
        let slot = self.peers.intern(from, &self.arena);
        self.peers.entries[slot].liveness.record(seq, sent_at, now);
        if let Some(obs) = &mut self.obs {
            obs.on_alive_datagram(from, now);
        }
        if self.adaptive_groups == 0 {
            // No adaptive tuner anywhere on this node (the paper-faithful
            // default): skip the per-group fan-out on the hot path.
            return;
        }
        for gi in 0..self.groups.len() {
            let (_, gslot) = self.groups.pair(gi);
            let state = self.groups.slot_mut(gslot);
            if state.members.get(from).is_some() {
                state.tuner.observe(from, seq, sent_at, now);
            }
        }
    }

    /// Dispatches a batched ALIVE: the shared envelope is unpacked into one
    /// per-group heartbeat each. The shared liveness arena deduplicates the
    /// measurement, so the datagram is one sample on the link however many
    /// groups it carries.
    fn handle_alive_batch(
        &mut self,
        from: NodeId,
        incarnation: u64,
        seq: u64,
        sent_at: SimInstant,
        alives: Vec<GroupAlive>,
        ctx: &mut ServiceContext,
    ) {
        self.note_peer_incarnation(from, incarnation, ctx);
        self.note_alive_datagram(from, seq, sent_at, ctx.now());
        for entry in alives {
            let header = AliveHeader {
                incarnation,
                seq,
                sent_at,
                sending_interval: entry.sending_interval,
                requested_interval: entry.requested_interval,
            };
            self.apply_group_alive(
                from,
                entry.group,
                header,
                entry.payload,
                entry.representative,
                ctx,
            );
        }
    }

    /// The per-group effect of one ALIVE heartbeat (single or unpacked from
    /// a batch): membership refresh, failure-detector freshness, election
    /// payload.
    fn apply_group_alive(
        &mut self,
        from: NodeId,
        group: GroupId,
        header: AliveHeader,
        payload: sle_election::AlivePayload,
        representative: ProcessId,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        // A member first learnt of via ALIVE (no HELLO yet) is seeded with
        // its advertised representative as the only known process; a HELLO
        // will replace the list with the authoritative one.
        let created = state.members.get(from).is_none();
        let member = state.members.ensure(from, header.incarnation, now);
        if created {
            member.processes = vec![(representative, true)];
        }
        let representative_changed = member.representative != Some(representative);
        member.representative = Some(representative);
        member.requested_interval = Some(header.requested_interval);
        let leader_before = state.elector.leader();
        // The measurement side of this heartbeat (link estimator, adaptive
        // tuner) was already fed at node level by `note_alive_datagram`;
        // the monitor's own recording dedups against it.
        let transition = state.fd.on_heartbeat(
            from,
            header.seq,
            header.sent_at,
            header.sending_interval,
            now,
        );
        let mut revived = false;
        if let Some(t) = transition {
            if t.transition == Transition::BecameTrusted {
                // A revival of a suspected peer: the suspicion was a
                // detector mistake (the paper's T_MR numerator).
                revived = true;
                if let Some(obs) = &mut self.obs {
                    obs.on_mistake(group, now);
                }
                state.elector.on_trust(from, now);
            }
        }
        state.elector.on_alive(from, payload, now);
        // A heartbeat only *extends* the sender's freshness horizon, so the
        // earliest FD deadline cannot have moved earlier unless the peer's
        // trust state transitioned; skip the re-arm scan on the steady-state
        // path where a timer is already pending.
        if revived || state.armed_fd_deadline.is_none() {
            self.arm_fd_timer(group, ctx);
        }
        // `check_leader` per payload is the scale-cell hot path. In steady
        // state nothing it derives has changed: same elector leader, same
        // representative, no trust transition. Time-driven transitions (the
        // self-election grace elapsing, the lease settle delay) are driven
        // by the grace / FD / ALIVE timers, not by received heartbeats.
        let leader_changed = {
            let Some(state) = self.groups.get(group) else {
                return;
            };
            state.elector.leader() != leader_before
        };
        if created || representative_changed || revived || leader_changed {
            self.check_leader(group, ctx);
        }
    }

    fn handle_accusation(&mut self, group: GroupId, epoch: u64, ctx: &mut ServiceContext) {
        let now = ctx.now();
        if let Some(state) = self.groups.get_mut(group) {
            // An ACCUSE below the elector's current epoch was minted against
            // a previous suspicion episode — or a previous elector life (the
            // chaos duplication machinery can replay one long after the
            // leader yielded and re-won). Honouring it would re-rank a
            // settled leader and forge a fencing-token regression. The
            // electors additionally require exact epoch equality; dropping
            // stale ones here makes replays observable as a counter.
            if epoch < state.elector.epoch() {
                self.stale_accusations_ignored.inc();
                return;
            }
            state.elector.on_accusation(epoch, now);
        }
        self.check_leader(group, ctx);
    }

    /// Serves one client-tier request: applied by the installed app while
    /// this node leads `group` under a valid lease, otherwise answered with
    /// a redirect carrying the current leader view.
    fn handle_client_request(
        &mut self,
        from: NodeId,
        group: GroupId,
        session: u64,
        seq: u64,
        payload: u64,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            self.requests_redirected.inc();
            ctx.send(
                from,
                ServiceMessage::Redirect {
                    group,
                    session,
                    seq,
                    leader: None,
                },
            );
            return;
        };
        let lease = state.lease.filter(|lease| lease.valid_at(now));
        if let (Some(lease), Some(app)) = (lease, self.app.as_mut()) {
            let (applied, value) = match app.apply(group, lease.token, payload) {
                Ok(value) => {
                    self.requests_applied.inc();
                    (true, value)
                }
                Err(_stale) => {
                    self.requests_rejected.inc();
                    (false, 0)
                }
            };
            ctx.send(
                from,
                ServiceMessage::ClientReply {
                    group,
                    session,
                    seq,
                    applied,
                    value,
                    token: lease.token,
                },
            );
        } else {
            self.requests_redirected.inc();
            ctx.send(
                from,
                ServiceMessage::Redirect {
                    group,
                    session,
                    seq,
                    leader: state.announced_leader,
                },
            );
        }
    }

    /// Records a remote leader's lease broadcast and forwards the fencing
    /// token to the installed app, advancing its high-water mark ahead of
    /// the new leader's first write.
    fn handle_lease_grant(
        &mut self,
        group: GroupId,
        token: FencingToken,
        valid_for: SimDuration,
        ctx: &mut ServiceContext,
    ) {
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        // Track the *highest* grant seen: it answers client redirects and
        // floors this node's own future mints (see `check_leader`).
        if state.remote_lease.as_ref().is_none_or(|l| token >= l.token) {
            state.remote_lease = Some(LeaderLease {
                token,
                renewed_at: ctx.now(),
                ttl: valid_for,
            });
        }
        if let Some(app) = self.app.as_mut() {
            app.observe_token(group, token);
        }
        // A leading node that just observed a claimant's higher token must
        // immediately out-mint it to stay serviceable.
        self.check_leader(group, ctx);
    }

    fn handle_leave(
        &mut self,
        from: NodeId,
        group: GroupId,
        process: ProcessId,
        ctx: &mut ServiceContext,
    ) {
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let mut gone = false;
        if let Some(member) = state.members.get_mut(from) {
            member.processes.retain(|(p, _)| *p != process);
            if member.processes.is_empty() {
                gone = true;
            }
        }
        if gone {
            state.members.remove(from);
            state.elector.remove_peer(from, now);
            state.fd.remove_peer(from);
            state.tuner.forget_peer(from);
        }
        self.check_leader(group, ctx);
    }

    fn handle_hello_timer(&mut self, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let timeout = self.config.membership_timeout;
        let groups: Vec<GroupId> = self.groups.ids().collect();
        for group in groups {
            let mut expired = Vec::new();
            if let Some(state) = self.groups.get_mut(group) {
                for member in state.members.iter() {
                    let silent_for = now.saturating_since(member.last_heard);
                    if silent_for > timeout && !state.fd.is_trusted(member.peer) {
                        expired.push(member.peer);
                    }
                }
                for &peer in &expired {
                    state.members.remove(peer);
                    state.elector.remove_peer(peer, now);
                    state.fd.remove_peer(peer);
                    state.tuner.forget_peer(peer);
                }
            }
            if !expired.is_empty() {
                self.check_leader(group, ctx);
            }
        }
        self.send_hellos(ctx);
        ctx.set_timer_after(HELLO_TIMER, self.config.hello_interval);
    }

    fn handle_fd_timer(&mut self, group: GroupId, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let mut accusations: Vec<(NodeId, u64)> = Vec::new();
        if let Some(state) = self.groups.get_mut(group) {
            // The armed timer was just consumed by firing.
            state.armed_fd_deadline = None;
            for transition in state.fd.poll(now) {
                if transition.transition == Transition::BecameSuspected {
                    if let Some(obs) = &mut self.obs {
                        // Detection latency T_D: silence since the suspected
                        // peer's last heartbeat or gossip.
                        let silent_for = state
                            .members
                            .get(transition.peer)
                            .map(|m| now.saturating_since(m.last_heard))
                            .unwrap_or_default();
                        obs.on_detection(group, silent_for, now);
                    }
                    for output in state.elector.on_suspect(transition.peer, now) {
                        match output {
                            ElectorOutput::SendAccusation { to, epoch } => {
                                accusations.push((to, epoch));
                            }
                        }
                    }
                }
            }
        }
        for (to, epoch) in accusations {
            if let Some(obs) = &mut self.obs {
                obs.on_accusation(group, to, now);
            }
            ctx.send(to, ServiceMessage::Accuse { group, epoch });
        }
        self.arm_fd_timer(group, ctx);
        self.check_leader(group, ctx);
    }

    /// Periodic QoS re-derivation (adaptive tuning only): asks the tuner for
    /// a fresh recommendation per monitored peer and applies it live to the
    /// failure detector and to the election grace period.
    fn handle_tune_timer(&mut self, group: GroupId, ctx: &mut ServiceContext) {
        let now = ctx.now();
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let Some(period) = state.tuner.period() else {
            return;
        };
        let qos = state.qos;
        let peers: Vec<NodeId> = state.fd.peers().collect();
        // The group-wide grace period must cover the *slowest* link: an
        // incumbent leader behind the worst link still has to be heard from
        // before a rejoining candidate may claim the leadership. A peer
        // without a recommendation is still on the static bound, so the
        // grace may only be tuned once every monitored peer is measured.
        let mut round_grace: Option<SimDuration> = None;
        let mut all_peers_measured = !peers.is_empty();
        for peer in peers {
            if let Some(recommendation) = state.tuner.recommend(peer, &qos, now) {
                state.fd.set_peer_params(peer, recommendation.params);
                let grace = recommendation.election_grace();
                round_grace = Some(round_grace.map_or(grace, |g| g.max(grace)));
            } else {
                all_peers_measured = false;
            }
        }
        state.tuned_grace = if all_peers_measured {
            round_grace
        } else {
            None
        };
        ctx.set_timer_after(tune_tag(group), period);
        self.arm_fd_timer(group, ctx);
    }

    /// The failure-detector operating parameters currently used towards
    /// `peer` in `group` (observability hook; also used by the experiment
    /// harness to verify adaptation).
    pub fn fd_params_of(&self, group: GroupId, peer: NodeId) -> Option<FdParams> {
        self.groups.get(group)?.fd.params(peer)
    }
}

impl Actor for ServiceNode {
    type Msg = ServiceMessage;
    type Event = ServiceEvent;

    fn on_start(&mut self, ctx: &mut ServiceContext) {
        self.incarnation = ctx.incarnation();
        let auto_joins = self.config.auto_joins.clone();
        for auto in auto_joins {
            let process = self.register_process();
            // Joining our own freshly registered process cannot fail.
            let _ = self.join_group(process, auto.group, auto.config, ctx);
        }
        self.send_hellos(ctx);
        ctx.set_timer_after(HELLO_TIMER, self.config.hello_interval);
    }

    fn on_message(&mut self, from: NodeId, msg: ServiceMessage, ctx: &mut ServiceContext) {
        match msg {
            ServiceMessage::Hello {
                incarnation,
                announcements,
                ..
            } => self.handle_hello(from, incarnation, announcements, ctx),
            ServiceMessage::Alive {
                group,
                header,
                payload,
                representative,
            } => self.handle_alive(from, group, header, payload, representative, ctx),
            ServiceMessage::AliveBatch {
                incarnation,
                seq,
                sent_at,
                alives,
            } => self.handle_alive_batch(from, incarnation, seq, sent_at, alives, ctx),
            ServiceMessage::Accuse { group, epoch } => self.handle_accusation(group, epoch, ctx),
            ServiceMessage::Leave { group, process } => {
                self.handle_leave(from, group, process, ctx)
            }
            ServiceMessage::LeaseGrant {
                group,
                token,
                valid_for,
            } => self.handle_lease_grant(group, token, valid_for, ctx),
            ServiceMessage::ClientRequest {
                group,
                session,
                seq,
                payload,
            } => self.handle_client_request(from, group, session, seq, payload, ctx),
            // Client-bound answers: a service instance can receive these
            // only through misrouting (or a hostile sender); ignore them.
            ServiceMessage::ClientReply { .. } | ServiceMessage::Redirect { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut ServiceContext) {
        if tag == HELLO_TIMER {
            self.handle_hello_timer(ctx);
            return;
        }
        if tag == ALIVE_TIMER {
            self.handle_alive_tick(ctx);
            return;
        }
        let group = GroupId((tag.0 & 0xFFFF_FFFF) as u32);
        match tag.0 >> 32 {
            FD_KIND => self.handle_fd_timer(group, ctx),
            GRACE_KIND => {
                if let Some(obs) = &mut self.obs {
                    obs.on_grace_timer(ctx.now());
                }
                self.check_leader(group, ctx)
            }
            TUNE_KIND => self.handle_tune_timer(group, ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::prelude::*;

    const GROUP: GroupId = GroupId(1);

    fn build_world(
        n: usize,
        algorithm: ElectorKind,
        seed: u64,
    ) -> ParWorld<ServiceNode, PerfectMedium> {
        ParWorld::new(
            n,
            1,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, algorithm)
                    .with_auto_join(GROUP, JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            PerfectMedium,
            seed,
        )
    }

    fn agreed_leader<M: Medium>(
        world: &ParWorld<ServiceNode, M>,
        group: GroupId,
    ) -> Option<ProcessId> {
        let mut leader = None;
        for i in 0..world.num_nodes() {
            let node = NodeId(i as u32);
            if !world.is_up(node) {
                continue;
            }
            let view = world.actor(node)?.leader_of(group)?;
            match leader {
                None => leader = Some(view),
                Some(l) if l == view => {}
                _ => return None,
            }
        }
        leader
    }

    #[test]
    fn a_group_of_services_agrees_on_a_leader() {
        for algorithm in ElectorKind::all() {
            let mut world = build_world(4, algorithm, 7);
            let mut obs = [NullObserver];
            world.run_for(SimDuration::from_secs(5), &mut obs);
            let leader = agreed_leader(&world, GROUP);
            assert!(leader.is_some(), "{algorithm}: no agreement after 5 s");
        }
    }

    #[test]
    fn leader_crash_triggers_reelection_within_seconds() {
        for algorithm in ElectorKind::all() {
            let mut world = build_world(4, algorithm, 11);
            let mut obs = [NullObserver];
            world.run_for(SimDuration::from_secs(5), &mut obs);
            let leader = agreed_leader(&world, GROUP).expect("initial leader");

            world.schedule_crash(leader.node, world.now() + SimDuration::from_millis(10));
            world.run_for(SimDuration::from_secs(5), &mut obs);
            let new_leader = agreed_leader(&world, GROUP)
                .unwrap_or_else(|| panic!("{algorithm}: no new leader after crash"));
            assert_ne!(
                new_leader.node, leader.node,
                "{algorithm}: crashed node still leads"
            );
        }
    }

    #[test]
    fn stable_algorithms_keep_leader_when_smaller_id_rejoins() {
        // Crash node 0 (smallest id). Under S2/S3 its recovery must not
        // demote the incumbent; under S1 it must (that is the instability
        // the paper measures).
        for (algorithm, expect_demotion) in [
            (ElectorKind::OmegaId, true),
            (ElectorKind::OmegaLc, false),
            (ElectorKind::OmegaL, false),
        ] {
            let mut world = build_world(4, algorithm, 13);
            let mut obs = [NullObserver];
            world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(3.0));
            world.schedule_recovery(NodeId(0), SimInstant::from_secs_f64(20.0));
            world.run_for(SimDuration::from_secs(15), &mut obs);
            let leader_before = agreed_leader(&world, GROUP).expect("leader before rejoin");
            assert_ne!(leader_before.node, NodeId(0));

            world.run_for(SimDuration::from_secs(15), &mut obs);
            let leader_after = agreed_leader(&world, GROUP).expect("leader after rejoin");
            if expect_demotion {
                assert_eq!(leader_after.node, NodeId(0), "{algorithm}: S1 must demote");
            } else {
                assert_eq!(
                    leader_after, leader_before,
                    "{algorithm}: stable algorithm must not demote a healthy leader"
                );
            }
        }
    }

    #[test]
    fn omega_l_converges_to_a_single_sender() {
        let mut world = build_world(6, ElectorKind::OmegaL, 19);
        let mut obs = [NullObserver];
        world.run_for(SimDuration::from_secs(10), &mut obs);
        let competing: Vec<NodeId> = (0..6)
            .map(|i| NodeId(i as u32))
            .filter(|&n| {
                world
                    .actor(n)
                    .map(|a| a.is_competing(GROUP))
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(
            competing.len(),
            1,
            "exactly one process should still send ALIVEs"
        );
        let leader = agreed_leader(&world, GROUP).unwrap();
        assert_eq!(leader.node, competing[0]);
    }

    #[test]
    fn omega_lc_keeps_every_candidate_sending() {
        let mut world = build_world(4, ElectorKind::OmegaLc, 23);
        let mut obs = [NullObserver];
        world.run_for(SimDuration::from_secs(5), &mut obs);
        for i in 0..4 {
            assert!(world.actor(NodeId(i)).unwrap().is_competing(GROUP));
        }
    }

    #[test]
    fn join_and_leave_api_validation() {
        let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc);
        let mut node = ServiceNode::new(config);
        let mut ctx = ServiceContext::new(SimInstant::ZERO, NodeId(0), 0);
        let foreign = ProcessId::new(NodeId(1), 0);
        assert_eq!(
            node.join_group(foreign, GROUP, JoinConfig::candidate(), &mut ctx),
            Err(ServiceError::ForeignProcess(foreign))
        );
        let unregistered = ProcessId::new(NodeId(0), 9);
        assert_eq!(
            node.join_group(unregistered, GROUP, JoinConfig::candidate(), &mut ctx),
            Err(ServiceError::UnknownProcess(unregistered))
        );
        let process = node.register_process();
        assert_eq!(
            node.leave_group(process, GROUP, &mut ctx),
            Err(ServiceError::NotJoined(process, GROUP))
        );
        assert!(node.local_members_of(GROUP).is_empty());
        assert!(node
            .join_group(process, GROUP, JoinConfig::candidate(), &mut ctx)
            .is_ok());
        assert_eq!(node.leader_of(GROUP), Some(process));
        assert_eq!(node.group_ids().collect::<Vec<_>>(), vec![GROUP]);
        assert_eq!(node.local_members_of(GROUP), vec![process]);
        assert!(node.leave_group(process, GROUP, &mut ctx).is_ok());
        assert_eq!(node.leader_of(GROUP), None);
        assert!(node.local_members_of(GROUP).is_empty());
        assert_eq!(node.algorithm(), ElectorKind::OmegaLc);
        assert_eq!(node.node_id(), NodeId(0));
    }

    #[test]
    fn listener_follows_without_becoming_leader() {
        let n = 3;
        let mut world: ParWorld<ServiceNode, PerfectMedium> = ParWorld::new(
            n,
            1,
            Box::new(move |node, _inc| {
                let join = if node == NodeId(2) {
                    JoinConfig::listener()
                } else {
                    JoinConfig::candidate()
                };
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
                    .with_auto_join(GROUP, join);
                ServiceNode::new(config)
            }),
            PerfectMedium,
            31,
        );
        let mut obs = [NullObserver];
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let leader = agreed_leader(&world, GROUP).expect("leader");
        assert_ne!(leader.node, NodeId(2), "a listener must never be elected");
        assert!(!world.actor(NodeId(2)).unwrap().is_competing(GROUP));
    }

    #[test]
    fn adaptive_tuning_tracks_latency_regimes_deterministically() {
        // A two-node group over a deterministic medium whose delay steps
        // 90 ms → 2 ms → 150 ms. The tuner's recommended timeout shift δ
        // must shrink after the latency drop and grow after the spike.
        let n = 2;
        let medium = SteppedDelayMedium::new(SimDuration::from_millis(90))
            .with_step(SimInstant::from_secs_f64(20.0), SimDuration::from_millis(2))
            .with_step(
                SimInstant::from_secs_f64(40.0),
                SimDuration::from_millis(150),
            );
        let mut world: ParWorld<ServiceNode, SteppedDelayMedium> = ParWorld::new(
            n,
            1,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                    .with_auto_join(GROUP, JoinConfig::candidate().with_adaptive_tuning());
                ServiceNode::new(config)
            }),
            medium,
            3,
        );
        let mut obs = [NullObserver];
        let params_at = |world: &ParWorld<ServiceNode, SteppedDelayMedium>| {
            world
                .actor(NodeId(0))
                .unwrap()
                .fd_params_of(GROUP, NodeId(1))
                .expect("node 0 monitors node 1")
        };

        world.run_until(SimInstant::from_secs_f64(18.0), &mut obs);
        let slow = params_at(&world);
        // Tuned: the bound must already be below the static T_D^U = 1 s.
        assert!(slow.worst_case_detection() < SimDuration::from_secs(1));
        assert!(
            slow.shift > SimDuration::from_millis(90),
            "δ must clear the 90 ms delay"
        );

        world.run_until(SimInstant::from_secs_f64(38.0), &mut obs);
        let fast = params_at(&world);
        assert!(
            fast.shift < slow.shift,
            "δ must shrink after the latency drop: {} !< {}",
            fast.shift,
            slow.shift
        );

        world.run_until(SimInstant::from_secs_f64(58.0), &mut obs);
        let spiked = params_at(&world);
        assert!(
            spiked.shift > fast.shift,
            "δ must grow after the latency spike: {} !> {}",
            spiked.shift,
            fast.shift
        );
        assert!(
            spiked.shift > SimDuration::from_millis(150),
            "δ must clear the 150 ms delay"
        );

        // Throughout, both nodes keep agreeing on a leader (tuning must not
        // destabilise the election).
        assert!(agreed_leader(&world, GROUP).is_some());
    }

    #[test]
    fn static_join_never_arms_the_tuner() {
        let config = ServiceConfig::full_mesh(NodeId(0), 2, ElectorKind::OmegaLc);
        let mut node = ServiceNode::new(config);
        let mut ctx = ServiceContext::new(SimInstant::ZERO, NodeId(0), 0);
        let process = node.register_process();
        node.join_group(process, GROUP, JoinConfig::candidate(), &mut ctx)
            .unwrap();
        // A static join arms HELLO/ALIVE/FD/grace timers but no tune timer.
        let effects = ctx.into_effects();
        let tune = TimerTag(4u64 << 32 | GROUP.0 as u64);
        assert!(effects.iter().all(|e| !matches!(
            e,
            sle_sim::Effect::SetTimer { tag, .. } if *tag == tune
        )));
    }

    #[test]
    fn multi_group_alives_share_one_datagram_per_destination() {
        // Two workstations sharing three groups: the per-node tick must
        // coalesce the three per-group heartbeats bound for the same peer
        // into one batched datagram.
        let n = 2;
        let groups = [GroupId(1), GroupId(2), GroupId(3)];
        let mut world: ParWorld<ServiceNode, PerfectMedium> = ParWorld::new(
            n,
            1,
            Box::new(move |node, _inc| {
                let mut config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc);
                for group in groups {
                    config = config.with_auto_join(group, JoinConfig::candidate());
                }
                ServiceNode::new(config)
            }),
            PerfectMedium,
            41,
        );
        let mut obs = [NullObserver];
        world.run_for(SimDuration::from_secs(5), &mut obs);
        for i in 0..n {
            let actor = world.actor(NodeId(i as u32)).unwrap();
            let payloads = actor.alive_payloads_sent();
            let datagrams = actor.alive_datagrams_sent();
            assert!(payloads > 0);
            // All three groups join together and share one send interval,
            // so every tick batches exactly three payloads per datagram.
            assert_eq!(
                payloads,
                3 * datagrams,
                "node {i}: {payloads} payloads in {datagrams} datagrams"
            );
            for group in groups {
                assert!(actor.leader_of(group).is_some(), "no leader in {group:?}");
            }
        }
        // Both nodes converge on the same leader in every group.
        for group in groups {
            assert!(agreed_leader(&world, group).is_some());
        }
    }

    #[test]
    fn staggered_group_joins_converge_onto_shared_datagrams() {
        // Group 2 is joined mid-run, out of phase with group 1. The
        // quarter-interval batching slack must pull the two onto a shared
        // tick, so steady-state traffic is 2 payloads per datagram — not
        // one datagram per group forever.
        let n = 2;
        let mut world: ParWorld<ServiceNode, PerfectMedium> = ParWorld::new(
            n,
            1,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                    .with_auto_join(GroupId(1), JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            PerfectMedium,
            43,
        );
        let mut obs = [NullObserver];
        world.run_for(SimDuration::from_millis(330), &mut obs);
        for i in 0..n as u32 {
            world.with_actor(NodeId(i), &mut obs[0], |actor, ctx| {
                let process = actor.register_process();
                actor
                    .join_group(process, GroupId(2), JoinConfig::candidate(), ctx)
                    .expect("join group 2");
            });
        }
        // Let the phases converge, then measure a steady-state window.
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let counts = |world: &ParWorld<ServiceNode, PerfectMedium>, i: u32| {
            let actor = world.actor(NodeId(i)).unwrap();
            (actor.alive_payloads_sent(), actor.alive_datagrams_sent())
        };
        let before: Vec<_> = (0..n as u32).map(|i| counts(&world, i)).collect();
        world.run_for(SimDuration::from_secs(10), &mut obs);
        for i in 0..n as u32 {
            let (p0, d0) = before[i as usize];
            let (p1, d1) = counts(&world, i);
            let payloads = p1 - p0;
            let datagrams = d1 - d0;
            assert!(payloads > 0);
            // Perfect batching is 2 payloads per datagram; a monitor
            // reconfiguration can briefly desync the two groups' intervals
            // (and so their grids), so allow a handful of solo datagrams.
            assert!(
                payloads * 10 >= 2 * datagrams * 9,
                "node {i}: staggered groups failed to share datagrams \
                 ({payloads} payloads in {datagrams} datagrams)"
            );
        }
        assert!(agreed_leader(&world, GroupId(1)).is_some());
        assert!(agreed_leader(&world, GroupId(2)).is_some());
    }

    #[test]
    fn nodes_in_different_groups_do_not_interfere() {
        // Nodes 0,1 join group 1; nodes 2,3 join group 2.
        let n = 4;
        let mut world: ParWorld<ServiceNode, PerfectMedium> = ParWorld::new(
            n,
            1,
            Box::new(move |node, _inc| {
                let group = if node.0 < 2 { GroupId(1) } else { GroupId(2) };
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaLc)
                    .with_auto_join(group, JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            PerfectMedium,
            37,
        );
        let mut obs = [NullObserver];
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let leader1 = world
            .actor(NodeId(0))
            .unwrap()
            .leader_of(GroupId(1))
            .unwrap();
        let leader2 = world
            .actor(NodeId(2))
            .unwrap()
            .leader_of(GroupId(2))
            .unwrap();
        assert!(leader1.node.0 < 2);
        assert!(leader2.node.0 >= 2);
        assert_eq!(world.actor(NodeId(0)).unwrap().leader_of(GroupId(2)), None);
    }

    /// A minimal fenced state machine for the lease/client-tier tests: a
    /// counter with the canonical high-water fencing check.
    #[derive(Debug, Default)]
    struct TestApp {
        high_water: Option<crate::lease::FencingToken>,
        value: u64,
    }

    impl crate::lease::FencedApp for TestApp {
        fn apply(
            &mut self,
            _group: GroupId,
            token: crate::lease::FencingToken,
            payload: u64,
        ) -> Result<u64, crate::lease::StaleToken> {
            if let Some(high) = self.high_water {
                if token < high {
                    return Err(crate::lease::StaleToken {
                        presented: token,
                        high_water: high,
                    });
                }
            }
            self.high_water = Some(token);
            self.value += payload;
            Ok(self.value)
        }

        fn observe_token(&mut self, _group: GroupId, token: crate::lease::FencingToken) {
            if self.high_water.is_none_or(|high| token > high) {
                self.high_water = Some(token);
            }
        }
    }

    #[test]
    fn leader_serves_fenced_requests_and_followers_redirect() {
        let mut world = build_world(2, ElectorKind::OmegaLc, 61);
        let mut obs = [NullObserver];
        for i in 0..2u32 {
            world.with_actor(NodeId(i), &mut obs[0], |actor, _ctx| {
                actor.install_app(Box::new(TestApp::default()));
                assert!(actor.has_app());
            });
        }
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let leader = agreed_leader(&world, GROUP).expect("agreed leader").node;
        let follower = NodeId(1 - leader.0);

        world.with_actor(leader, &mut obs[0], |actor, ctx| {
            let lease = actor.lease_of(GROUP).expect("the leader holds a lease");
            assert_eq!(lease.token.node, leader);
            assert!(lease.valid_at(ctx.now()), "lease expired while leading");
            assert_eq!(actor.fencing_token(GROUP), Some(lease.token));
            assert!(actor.leases_minted() >= 1);
            // A client request lands on the leader: served.
            actor.on_message(
                follower,
                ServiceMessage::ClientRequest {
                    group: GROUP,
                    session: 1,
                    seq: 0,
                    payload: 7,
                },
                ctx,
            );
            assert_eq!(actor.client_requests_applied(), 1);
            assert_eq!(actor.client_requests_redirected(), 0);
        });

        world.with_actor(follower, &mut obs[0], |actor, ctx| {
            // The follower holds no lease of its own…
            assert_eq!(actor.lease_of(GROUP), None);
            // …but has heard the leader's LeaseGrant broadcasts.
            let remote = actor
                .remote_lease_of(GROUP)
                .expect("LeaseGrant broadcasts reached the follower");
            assert_eq!(remote.token.node, leader);
            // A client request landing on the follower is redirected to the
            // leader it knows about.
            actor.on_message(
                leader,
                ServiceMessage::ClientRequest {
                    group: GROUP,
                    session: 2,
                    seq: 0,
                    payload: 7,
                },
                ctx,
            );
            assert_eq!(actor.client_requests_applied(), 0);
            assert_eq!(actor.client_requests_redirected(), 1);
            // Unknown group: redirected with no hint (leader unknown).
            actor.on_message(
                leader,
                ServiceMessage::ClientRequest {
                    group: GroupId(99),
                    session: 2,
                    seq: 1,
                    payload: 7,
                },
                ctx,
            );
            assert_eq!(actor.client_requests_redirected(), 2);
        });
    }

    #[test]
    fn replayed_stale_accusation_is_ignored_after_elector_recreation() {
        // Node 2 joins as a listener; its elector life later restarts when
        // it upgrades to candidate (the join_group recreation site). An
        // ACCUSE minted against the pre-upgrade elector life must not be
        // honoured by the recreated one.
        let n = 3;
        let mut world: ParWorld<ServiceNode, PerfectMedium> = ParWorld::new(
            n,
            1,
            Box::new(move |node, _inc| {
                let join = if node == NodeId(2) {
                    JoinConfig::listener()
                } else {
                    JoinConfig::candidate()
                };
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
                    .with_auto_join(GROUP, join);
                ServiceNode::new(config)
            }),
            PerfectMedium,
            67,
        );
        let mut obs = [NullObserver];
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let before = agreed_leader(&world, GROUP).expect("settled leader");
        assert_ne!(before.node, NodeId(2));

        // Upgrade node 2 to candidate: the elector is recreated with an
        // epoch floor above everything its previous life advertised.
        world.with_actor(NodeId(2), &mut obs[0], |actor, ctx| {
            let process = actor.register_process();
            actor
                .join_group(process, GROUP, JoinConfig::candidate(), ctx)
                .expect("upgrade to candidate");
            // Replay a duplicated stale ACCUSE from the pre-upgrade life
            // (epoch 0 was current before the recreation). Both copies must
            // be dropped by the stale-epoch guard.
            for _ in 0..2 {
                actor.on_message(
                    NodeId(0),
                    ServiceMessage::Accuse {
                        group: GROUP,
                        epoch: 0,
                    },
                    ctx,
                );
            }
            assert_eq!(actor.stale_accusations_ignored(), 2);
        });

        // The replays must not have perturbed the election: the settled
        // leader is still in office after another settling period.
        world.run_for(SimDuration::from_secs(5), &mut obs);
        let after = agreed_leader(&world, GROUP).expect("leader after replay");
        assert_eq!(after, before, "a replayed stale ACCUSE changed leadership");
    }

    /// One leader-change announcement, as plain comparable data:
    /// `(virtual ns, observing node, group, leader as (node, local))`.
    type LeaderTraceEvent = (u64, u32, u32, Option<(u32, u32)>);

    /// Records every leader-change announcement as plain data, for
    /// comparing two runs event-for-event.
    #[derive(Debug, Default)]
    struct LeaderTrace {
        events: Vec<LeaderTraceEvent>,
    }

    impl Observer<ServiceEvent> for LeaderTrace {
        fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &ServiceEvent) {
            let ServiceEvent::LeaderChanged { group, leader } = event;
            self.events.push((
                now.as_nanos(),
                node.0,
                group.0,
                leader.map(|p| (p.node.0, p.local)),
            ));
        }
    }

    fn crash_recover_trace(seed: u64) -> Vec<LeaderTraceEvent> {
        let n = 5;
        let medium = sle_net::network::NetworkModel::new(
            sle_net::link::LinkSpec::from_paper_tuple(10.0, 0.01),
        )
        .build(seed);
        let mut world: ParWorld<ServiceNode, sle_net::network::SimulatedNetwork> = ParWorld::new(
            n,
            1,
            Box::new(move |node, _inc| {
                let config = ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
                    .with_auto_join(GROUP, JoinConfig::candidate());
                ServiceNode::new(config)
            }),
            medium,
            seed,
        );
        let mut obs = [LeaderTrace::default()];
        world.schedule_crash(NodeId(1), SimInstant::from_secs_f64(4.0));
        world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(9.0));
        world.schedule_crash(NodeId(3), SimInstant::from_secs_f64(12.0));
        world.run_for(SimDuration::from_secs(20), &mut obs);
        let [obs] = obs;
        obs.events
    }

    #[test]
    fn crash_recover_runs_are_seed_deterministic() {
        // The dense tables iterate in interned-slot or sorted-id order, not
        // tree order; a lossy medium plus crash/recover churn exercises all
        // of them. Two runs from one seed must announce the identical
        // leader-change sequence, timestamp for timestamp.
        let first = crash_recover_trace(0xD5);
        let second = crash_recover_trace(0xD5);
        assert!(
            !first.is_empty(),
            "the scenario must produce leader changes"
        );
        assert_eq!(
            first, second,
            "same seed must replay the identical leader-change trace"
        );
    }

    #[test]
    fn group_churn_keeps_monitor_arena_at_baseline() {
        // Two workstations share one long-lived group; a second group on
        // the same pair is joined and left repeatedly. The shared liveness
        // arena must keep exactly one record per contacted peer throughout:
        // churn neither leaks records nor reclaims the estimate the
        // long-lived group (and the node's own cached handle) still uses.
        let n = 2u32;
        let mut world = build_world(n as usize, ElectorKind::OmegaLc, 71);
        let mut obs = [NullObserver];
        world.run_for(SimDuration::from_secs(2), &mut obs);
        let baseline: Vec<usize> = (0..n)
            .map(|i| world.actor(NodeId(i)).unwrap().monitored_peer_count())
            .collect();
        assert!(
            baseline.iter().all(|&count| count == 1),
            "each node tracks exactly its one peer: {baseline:?}"
        );
        let churn = GroupId(50);
        for round in 0..10 {
            for i in 0..n {
                world.with_actor(NodeId(i), &mut obs[0], |actor, ctx| {
                    let process = actor.register_process();
                    actor
                        .join_group(process, churn, JoinConfig::candidate(), ctx)
                        .expect("join churn group");
                });
            }
            world.run_for(SimDuration::from_millis(400), &mut obs);
            for i in 0..n {
                world.with_actor(NodeId(i), &mut obs[0], |actor, ctx| {
                    for process in actor.local_members_of(churn) {
                        actor
                            .leave_group(process, churn, ctx)
                            .expect("leave churn group");
                    }
                });
            }
            world.run_for(SimDuration::from_millis(100), &mut obs);
            for i in 0..n {
                let count = world.actor(NodeId(i)).unwrap().monitored_peer_count();
                assert_eq!(
                    count, baseline[i as usize],
                    "round {round}: node {i} arena record count drifted"
                );
            }
        }
    }
}
