//! Structured runtime events — sparkline's analog of Spark's listener bus
//! and event log.
//!
//! The scheduler ([`crate::Context`]) and the shuffle machinery emit one
//! [`Event`] per interesting occurrence: job and stage boundaries with
//! wall-clock timing, every task attempt (including retries and injected
//! failures), and per-task shuffle bytes/records written and read. Events
//! are gathered by the context's [`EventCollector`] and can be folded into a
//! queryable [`crate::profile::JobProfile`] or serialized as a JSON event
//! log. The `events!` table below is the schema: it declares each event once
//! and generates the enum, its JSON writer and its parser (`EXPERIMENTS.md`
//! documents the same table, and a test keeps the two in step).
//!
//! Collection is off by default and costs one relaxed atomic load per
//! emission site when disabled, so the instrumented hot paths stay cheap.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Declares every runtime event once. Each entry gives the variant, its
/// `"type"` string and its typed fields in JSON key order; from that one
/// table this macro generates the [`Event`] enum, [`Event::to_json`] and the
/// log parser behind [`parse_events`]. Each field type's JSON form comes
/// from its [`Field`] impl.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
        }
    )*) => {
        /// One structured runtime event. Timestamps are microseconds since the
        /// collector's epoch (context creation).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {
            $( $(#[$doc])* $variant { $( $(#[$field_doc])* $field: $ty, )* }, )*
        }

        impl Event {
            /// One-line JSON object for this event.
            pub fn to_json(&self) -> String {
                let mut out = String::new();
                match self {
                    $( Event::$variant { $($field),* } => {
                        out.push_str(concat!("{\"type\":\"", $kind, "\""));
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write_json(&mut out);
                        )*
                    } )*
                }
                out.push('}');
                out
            }

            /// `(type, [(field, Rust type)])` of every event, in table order.
            #[cfg(test)]
            const SCHEMA: &'static [(&'static str, &'static [(&'static str, &'static str)])] = &[
                $( ($kind, &[ $( (stringify!($field), stringify!($ty)), )* ]), )*
            ];
        }

        fn event_from_json(v: &JsonValue) -> Result<Event, String> {
            let kind: String = v.field("type")?;
            match kind.as_str() {
                $( $kind => Ok(Event::$variant {
                    $( $field: v.field(stringify!($field))?, )*
                }), )*
                other => Err(format!("unknown event type `{other}`")),
            }
        }
    };
}

events! {
    /// An action (job) started on the driver.
    JobStart = "job_start" {
        job_id: u64,
        /// Action name, e.g. `collect` or `count`.
        label: String,
        at_micros: u64,
    }
    /// The matching action finished (successfully or not).
    JobEnd = "job_end" {
        job_id: u64,
        wall_micros: u64,
    }
    /// A stage of `tasks` tasks was submitted to the executor pool.
    StageStart = "stage_start" {
        stage_id: u64,
        /// Innermost job running when the stage was submitted, if any.
        job_id: Option<u64>,
        /// Scheduler-level stage kind, e.g. `shuffle.map(reduceByKey)` or
        /// `action(collect)`.
        label: String,
        /// Plan node that produced this stage (set by the planner), e.g.
        /// `contraction/groupByJoin`.
        tag: Option<String>,
        /// Operator lineage of the stage's input, innermost source last.
        lineage: Option<String>,
        tasks: usize,
        at_micros: u64,
    }
    /// One task attempt finished. Failed attempts (`ok == false`) are
    /// emitted too, so retry storms are visible; `injected` marks failures
    /// planted by [`crate::Context::inject_task_failures`].
    TaskEnd = "task_end" {
        stage_id: u64,
        task: usize,
        attempt: u32,
        wall_micros: u64,
        ok: bool,
        injected: bool,
    }
    /// All tasks of the stage completed.
    StageEnd = "stage_end" {
        stage_id: u64,
        wall_micros: u64,
    }
    /// One map task's shuffle output (its partition of the shuffle write).
    ShuffleWrite = "shuffle_write" {
        stage_id: u64,
        shuffle_id: u64,
        operator: String,
        task: usize,
        bytes: u64,
        records: u64,
    }
    /// One reduce task's shuffle input (its partition of the shuffle read).
    ShuffleRead = "shuffle_read" {
        stage_id: u64,
        shuffle_id: u64,
        operator: String,
        task: usize,
        bytes: u64,
        records: u64,
    }
    /// One operator's output cardinality for one task attempt: how many rows
    /// flowed out of the operator's stream and a shallow byte estimate
    /// (`rows × size_of::<T>()`). Emitted once per operator per task attempt
    /// when tracing is on; retried or speculated attempts emit again, so
    /// consumers aggregating exact counts should run with chaos off.
    OperatorOutput = "operator_output" {
        /// Innermost stage whose task drained the stream, if any (driver-side
        /// drains carry no stage).
        stage_id: Option<u64>,
        task: usize,
        operator: String,
        rows: u64,
        bytes: u64,
    }
    /// A persisted partition was served from the block manager.
    CacheHit = "cache_hit" {
        /// Persisted dataset id ([`crate::storage::BlockManager`] key).
        dataset: u64,
        partition: usize,
        /// Estimated in-memory size of the block.
        bytes: u64,
        /// True if the block was decoded from a spill file.
        from_disk: bool,
        /// Innermost stage whose task performed the read, if any (cache
        /// reads on the driver carry no stage).
        stage_id: Option<u64>,
    }
    /// A persisted partition was requested before it was ever stored.
    CacheMiss = "cache_miss" {
        dataset: u64,
        partition: usize,
        stage_id: Option<u64>,
    }
    /// A block was evicted to fit the storage budget; `spilled` says whether
    /// it moved to disk (else it was dropped and must be recomputed).
    CacheEvict = "cache_evict" {
        dataset: u64,
        partition: usize,
        bytes: u64,
        spilled: bool,
        stage_id: Option<u64>,
    }
    /// A block was written to a spill file (eviction of a disk-level block,
    /// or a direct spill of a block larger than the whole budget).
    CacheSpill = "cache_spill" {
        dataset: u64,
        partition: usize,
        bytes: u64,
        stage_id: Option<u64>,
    }
    /// A previously evicted partition was recomputed from lineage.
    CacheRecompute = "cache_recompute" {
        dataset: u64,
        partition: usize,
        stage_id: Option<u64>,
    }
    /// A logical executor died (chaos kill or
    /// [`crate::Context::kill_executor`]): the shuffle map outputs and
    /// cached blocks it owned are lost and will be recomputed on demand.
    ExecutorLost = "executor_lost" {
        executor: usize,
        /// Live shuffle map outputs swept with the executor.
        lost_map_outputs: u64,
        /// Cached blocks swept with the executor.
        lost_blocks: u64,
        at_micros: u64,
    }
    /// A worker *process* died (chaos `kill -9`, a crash, or a blown
    /// heartbeat deadline) and was respawned with an empty block store. The
    /// logical executors it hosted are swept like an
    /// [`Event::ExecutorLost`] each.
    WorkerLost = "worker_lost" {
        worker: usize,
        /// How many logical executors were hosted on (and swept with) it.
        executors: u64,
        at_micros: u64,
    }
    /// One remote shuffle-fetch attempt failed (dead worker, dropped stream,
    /// CRC-rejected frame) and is being retried with backoff. `attempt` is
    /// 0-based; exhausting the retry budget escalates to
    /// [`Event::FetchFailed`].
    FetchRetry = "fetch_retry" {
        shuffle_id: u64,
        reduce_task: usize,
        map_partition: usize,
        attempt: u32,
    }
    /// A reduce task found map outputs missing (executor loss or an injected
    /// fetch failure) and handed the stage back for resubmission instead of
    /// panicking.
    FetchFailed = "fetch_failed" {
        shuffle_id: u64,
        /// The reduce stage whose task observed the failure.
        stage_id: u64,
        reduce_task: usize,
        /// How many map outputs that task found missing.
        lost_map_outputs: u64,
    }
    /// The scheduler resubmitted a shuffle's map stage covering only its
    /// missing partitions. `attempt` counts resubmissions of this shuffle
    /// (the initial stage is attempt 0).
    StageResubmitted = "stage_resubmitted" {
        shuffle_id: u64,
        attempt: u32,
        /// Map partitions recomputed by this resubmission.
        missing_tasks: u64,
    }
    /// A straggling task got a duplicate attempt on another executor
    /// (speculative execution); the first result wins.
    TaskSpeculated = "task_speculated" {
        stage_id: u64,
        task: usize,
        /// Executor running the duplicate attempt.
        executor: usize,
    }
    /// The planner resolved a cost-based physical choice (`plan.chosen`).
    /// Stage tags of the plan's shuffles equal `chosen`, which is how
    /// profiles pair the estimate with the actual shuffle bytes.
    PlanChosen = "plan_chosen" {
        /// Chosen strategy tag, e.g. `contraction/broadcast`.
        chosen: String,
        /// False when the strategy was pinned by configuration.
        auto: bool,
        /// Resolved shuffle partition count the plan runs with.
        partitions: u64,
        /// Estimated shuffle bytes of the chosen strategy.
        est_shuffle_bytes: u64,
        /// `(strategy tag, estimated shuffle bytes)` for every candidate the
        /// cost model considered eligible.
        candidates: Vec<(String, u64)>,
        at_micros: u64,
    }
    /// The adaptive stage driver revised a plan-time decision at a stage
    /// frontier (`plan_replanned`): measured statistics from the node's
    /// materialized inputs re-ran the cost model and either switched the
    /// physical strategy, changed the shuffle partition count, or both.
    /// Emitted only when something actually changed — a frozen or honest
    /// plan produces none.
    PlanReplanned = "plan_replanned" {
        /// Plan-node tag the re-decision applies to (the tag its shuffle
        /// stages carry), e.g. `contraction/reduceByKey`.
        tag: String,
        /// Strategy tag chosen at plan time.
        from: String,
        /// Strategy tag the node actually runs with.
        to: String,
        /// Plan-time estimated shuffle bytes of `from`.
        est_shuffle_bytes: u64,
        /// Re-costed shuffle bytes of `to` under the measured statistics.
        observed_bytes: u64,
        /// Shuffle partition count the remainder runs with (doubled when
        /// the frontier revealed >= 2x partition skew).
        partitions: u64,
        at_micros: u64,
    }
    /// The query service's fair scheduler granted a tenant job one of its
    /// admission slots. `queue_micros` is the wall time the job waited in the
    /// admission queue.
    JobAdmitted = "job_admitted" {
        /// Tenant name as registered with the service.
        tenant: String,
        /// Service-level job id (a separate id space from runtime `job_id`s:
        /// one admitted service job typically runs several runtime jobs).
        job: u64,
        queue_micros: u64,
        at_micros: u64,
    }
    /// A cooperative cancellation was observed at a task boundary: the
    /// in-flight tasks of the current stage finish, no further tasks of the
    /// job are launched, and the driver unwinds with a cancellation payload.
    /// Emitted once per cancelled job.
    JobCancelled = "job_cancelled" {
        tenant: String,
        /// Service-level job id (see [`Event::JobAdmitted`]).
        job: u64,
        /// Stage whose worker observed the cancellation, if any.
        stage_id: Option<u64>,
        at_micros: u64,
    }
    /// A query's physical plan was served from the service's plan cache
    /// instead of being re-planned. `key` is the cache key hash (canonical
    /// comprehension text plus binding fingerprints and planner knobs).
    PlanCacheHit = "plan_cache_hit" {
        tenant: String,
        key: u64,
        at_micros: u64,
    }
    /// The planner collapsed an elementwise region into one fused tile
    /// program (`region_fused`): `ops` compiled instructions over `inputs`
    /// tile inputs, executed as a single kernel pass per tile.
    RegionFused = "region_fused" {
        /// Compiled instruction count of the fused program (after constant
        /// folding).
        ops: u64,
        /// Number of tile inputs joined into the region.
        inputs: u64,
        /// Compiled program signature (also folded into service plan-cache
        /// keys).
        signature: String,
        /// Post-order source operator tags of the region, `;`-joined.
        source: String,
        at_micros: u64,
    }
    /// The planner found no distributed plan for a query, which runs on the
    /// driver in the local reference interpreter instead (`plan_fallback`).
    /// Emitted once per execution of such a plan.
    PlanFallback = "plan_fallback" {
        /// Why no distributed plan applied: the text `Planned::explain()`
        /// prints as `localFallback (<cause>) -> …`.
        cause: String,
        at_micros: u64,
    }
}

/// Lock-cheap event sink owned by a [`crate::Context`].
///
/// Disabled collectors only pay an atomic load per [`EventCollector::emit`];
/// enabled ones append to a mutex-guarded buffer (events are emitted from
/// executor threads).
pub struct EventCollector {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl Default for EventCollector {
    fn default() -> Self {
        EventCollector {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }
}

impl EventCollector {
    /// Is collection currently on? Emission sites check this before building
    /// event payloads so the disabled path does no allocation.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn collection on or off. Already-buffered events are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Microseconds since the collector was created.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Append one event if collection is enabled.
    pub fn emit(&self, event: Event) {
        if self.is_enabled() {
            self.events.lock().push(event);
        }
    }

    /// Remove and return everything collected so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }
}

// ---------------------------------------------------------------------------
// JSON serialization (hand-rolled: the build environment has no serde).
// ---------------------------------------------------------------------------

/// Append `s` to `out` as a quoted JSON string literal.
pub fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON codec of one event field type: how the table's typed fields are
/// written to and read back from the event log.
trait Field: Sized {
    fn write_json(&self, out: &mut String);

    /// `value` is `None` when the key is missing from the object.
    fn read_json(value: Option<&JsonValue>) -> Result<Self, String>;
}

impl Field for u64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }

    fn read_json(value: Option<&JsonValue>) -> Result<Self, String> {
        match value {
            Some(JsonValue::Num(n)) => Ok(*n),
            other => Err(format!("expected number, got {other:?}")),
        }
    }
}

/// Narrow integers read through `u64` and reject values that do not fit,
/// instead of wrapping them.
macro_rules! narrow_int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }

            fn read_json(value: Option<&JsonValue>) -> Result<Self, String> {
                let n = u64::read_json(value)?;
                <$t>::try_from(n).map_err(|_| format!("{n} does not fit in {}", stringify!($t)))
            }
        }
    )*};
}

narrow_int_field!(u32, usize);

impl Field for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read_json(value: Option<&JsonValue>) -> Result<Self, String> {
        match value {
            Some(JsonValue::Bool(b)) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

impl Field for String {
    fn write_json(&self, out: &mut String) {
        escape_json(self, out);
    }

    fn read_json(value: Option<&JsonValue>) -> Result<Self, String> {
        match value {
            Some(JsonValue::Str(s)) => Ok(s.clone()),
            other => Err(format!("expected string, got {other:?}")),
        }
    }
}

/// Optional fields are written as `null` when absent and read back from
/// `null` or a missing key (marked `?` in the EXPERIMENTS.md schema).
impl<T: Field> Field for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }

    fn read_json(value: Option<&JsonValue>) -> Result<Self, String> {
        match value {
            Some(JsonValue::Null) | None => Ok(None),
            value => T::read_json(value).map(Some),
        }
    }
}

/// Plan candidates: an array of `{"strategy": ..., "est_bytes": ...}`.
impl Field for Vec<(String, u64)> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, (strategy, est_bytes)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"strategy\":");
            strategy.write_json(out);
            out.push_str(",\"est_bytes\":");
            est_bytes.write_json(out);
            out.push('}');
        }
        out.push(']');
    }

    fn read_json(value: Option<&JsonValue>) -> Result<Self, String> {
        match value {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|it| Ok((it.field("strategy")?, it.field("est_bytes")?)))
                .collect(),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

/// Serialize an event log as a JSON array, one event per line.
pub fn to_json(events: &[Event]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&e.to_json());
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------------
// JSON parsing (minimal, for consuming recorded event logs in tests/tools).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| self.error("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("short \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 is copied through verbatim.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

impl JsonValue {
    /// The typed value of `key` in this object.
    fn field<T: Field>(&self, key: &str) -> Result<T, String> {
        let value = match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        };
        T::read_json(value).map_err(|e| format!("field `{key}`: {e}"))
    }
}

/// Parse a JSON event log produced by [`to_json`].
pub fn parse_events(json: &str) -> Result<Vec<Event>, String> {
    let mut parser = Parser::new(json);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing data after event log"));
    }
    match value {
        JsonValue::Array(items) => items.iter().map(event_from_json).collect(),
        _ => Err("event log must be a JSON array".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::JobStart {
                job_id: 0,
                label: "collect".into(),
                at_micros: 10,
            },
            Event::StageStart {
                stage_id: 1,
                job_id: Some(0),
                label: "shuffle.map(reduceByKey)".into(),
                tag: Some("contraction/reduceByKey".into()),
                lineage: Some("reduceByKey <~ map \"quoted\"".into()),
                tasks: 4,
                at_micros: 12,
            },
            Event::TaskEnd {
                stage_id: 1,
                task: 2,
                attempt: 1,
                wall_micros: 55,
                ok: false,
                injected: true,
            },
            Event::ShuffleWrite {
                stage_id: 1,
                shuffle_id: 7,
                operator: "reduceByKey".into(),
                task: 2,
                bytes: 4096,
                records: 16,
            },
            Event::ShuffleRead {
                stage_id: 2,
                shuffle_id: 7,
                operator: "reduceByKey".into(),
                task: 0,
                bytes: 1024,
                records: 4,
            },
            Event::OperatorOutput {
                stage_id: Some(1),
                task: 2,
                operator: "filter \"odd\"".into(),
                rows: 9,
                bytes: 72,
            },
            Event::CacheMiss {
                dataset: 5,
                partition: 0,
                stage_id: Some(2),
            },
            Event::CacheEvict {
                dataset: 5,
                partition: 1,
                bytes: 64,
                spilled: true,
                stage_id: Some(2),
            },
            Event::CacheSpill {
                dataset: 5,
                partition: 1,
                bytes: 64,
                stage_id: Some(2),
            },
            Event::CacheRecompute {
                dataset: 5,
                partition: 1,
                stage_id: None,
            },
            Event::CacheHit {
                dataset: 5,
                partition: 0,
                bytes: 128,
                from_disk: false,
                stage_id: None,
            },
            Event::ExecutorLost {
                executor: 1,
                lost_map_outputs: 3,
                lost_blocks: 2,
                at_micros: 70,
            },
            Event::WorkerLost {
                worker: 1,
                executors: 2,
                at_micros: 71,
            },
            Event::FetchRetry {
                shuffle_id: 7,
                reduce_task: 1,
                map_partition: 3,
                attempt: 0,
            },
            Event::FetchFailed {
                shuffle_id: 7,
                stage_id: 2,
                reduce_task: 1,
                lost_map_outputs: 3,
            },
            Event::StageResubmitted {
                shuffle_id: 7,
                attempt: 1,
                missing_tasks: 3,
            },
            Event::TaskSpeculated {
                stage_id: 2,
                task: 3,
                executor: 0,
            },
            Event::PlanChosen {
                chosen: "contraction/broadcast".into(),
                auto: true,
                partitions: 16,
                est_shuffle_bytes: 4096,
                candidates: vec![
                    ("contraction/broadcast".into(), 4096),
                    ("contraction/groupByJoin".into(), 65536),
                ],
                at_micros: 80,
            },
            Event::PlanReplanned {
                tag: "contraction/reduceByKey".into(),
                from: "contraction/reduceByKey".into(),
                to: "contraction/broadcast".into(),
                est_shuffle_bytes: 65536,
                observed_bytes: 4096,
                partitions: 16,
                at_micros: 81,
            },
            Event::JobAdmitted {
                tenant: "alice".into(),
                job: 3,
                queue_micros: 250,
                at_micros: 82,
            },
            Event::JobCancelled {
                tenant: "mallory".into(),
                job: 4,
                stage_id: Some(2),
                at_micros: 85,
            },
            Event::PlanCacheHit {
                tenant: "alice".into(),
                key: 0xfeed_beef,
                at_micros: 88,
            },
            Event::RegionFused {
                ops: 5,
                inputs: 2,
                signature: "s0;s1;c0.5;mul;add".into(),
                source: "load;load;const;mul;add".into(),
                at_micros: 89,
            },
            Event::PlanFallback {
                cause: "not a tiled builder".into(),
                at_micros: 89,
            },
            Event::StageEnd {
                stage_id: 1,
                wall_micros: 90,
            },
            Event::JobEnd {
                job_id: 0,
                wall_micros: 120,
            },
        ]
    }

    #[test]
    fn json_round_trip_preserves_every_event() {
        let events = sample_events();
        let json = to_json(&events);
        let back = parse_events(&json).expect("parse back");
        assert_eq!(events, back);
    }

    /// The writer's bytes are pinned: every line but `plan_fallback` was
    /// recorded from the hand-written writer the table replaced.
    #[test]
    fn json_writer_output_is_pinned() {
        let want = r#"[
  {"type":"job_start","job_id":0,"label":"collect","at_micros":10},
  {"type":"stage_start","stage_id":1,"job_id":0,"label":"shuffle.map(reduceByKey)","tag":"contraction/reduceByKey","lineage":"reduceByKey <~ map \"quoted\"","tasks":4,"at_micros":12},
  {"type":"task_end","stage_id":1,"task":2,"attempt":1,"wall_micros":55,"ok":false,"injected":true},
  {"type":"shuffle_write","stage_id":1,"shuffle_id":7,"operator":"reduceByKey","task":2,"bytes":4096,"records":16},
  {"type":"shuffle_read","stage_id":2,"shuffle_id":7,"operator":"reduceByKey","task":0,"bytes":1024,"records":4},
  {"type":"operator_output","stage_id":1,"task":2,"operator":"filter \"odd\"","rows":9,"bytes":72},
  {"type":"cache_miss","dataset":5,"partition":0,"stage_id":2},
  {"type":"cache_evict","dataset":5,"partition":1,"bytes":64,"spilled":true,"stage_id":2},
  {"type":"cache_spill","dataset":5,"partition":1,"bytes":64,"stage_id":2},
  {"type":"cache_recompute","dataset":5,"partition":1,"stage_id":null},
  {"type":"cache_hit","dataset":5,"partition":0,"bytes":128,"from_disk":false,"stage_id":null},
  {"type":"executor_lost","executor":1,"lost_map_outputs":3,"lost_blocks":2,"at_micros":70},
  {"type":"worker_lost","worker":1,"executors":2,"at_micros":71},
  {"type":"fetch_retry","shuffle_id":7,"reduce_task":1,"map_partition":3,"attempt":0},
  {"type":"fetch_failed","shuffle_id":7,"stage_id":2,"reduce_task":1,"lost_map_outputs":3},
  {"type":"stage_resubmitted","shuffle_id":7,"attempt":1,"missing_tasks":3},
  {"type":"task_speculated","stage_id":2,"task":3,"executor":0},
  {"type":"plan_chosen","chosen":"contraction/broadcast","auto":true,"partitions":16,"est_shuffle_bytes":4096,"candidates":[{"strategy":"contraction/broadcast","est_bytes":4096},{"strategy":"contraction/groupByJoin","est_bytes":65536}],"at_micros":80},
  {"type":"plan_replanned","tag":"contraction/reduceByKey","from":"contraction/reduceByKey","to":"contraction/broadcast","est_shuffle_bytes":65536,"observed_bytes":4096,"partitions":16,"at_micros":81},
  {"type":"job_admitted","tenant":"alice","job":3,"queue_micros":250,"at_micros":82},
  {"type":"job_cancelled","tenant":"mallory","job":4,"stage_id":2,"at_micros":85},
  {"type":"plan_cache_hit","tenant":"alice","key":4276993775,"at_micros":88},
  {"type":"region_fused","ops":5,"inputs":2,"signature":"s0;s1;c0.5;mul;add","source":"load;load;const;mul;add","at_micros":89},
  {"type":"plan_fallback","cause":"not a tiled builder","at_micros":89},
  {"type":"stage_end","stage_id":1,"wall_micros":90},
  {"type":"job_end","job_id":0,"wall_micros":120}
]"#;
        assert_eq!(to_json(&sample_events()), want);
    }

    /// Every kind in the table appears in `sample_events`, so the round-trip
    /// and golden tests cover each new event.
    #[test]
    fn sample_events_cover_every_kind() {
        let json = to_json(&sample_events());
        for (kind, _) in Event::SCHEMA {
            assert!(
                json.contains(&format!("{{\"type\":\"{kind}\"")),
                "sample_events() has no `{kind}` event"
            );
        }
    }

    /// The EXPERIMENTS.md "Trace event-log format" table lists every kind
    /// with the table's fields, in order, optional ones marked `?`.
    #[test]
    fn experiments_md_documents_every_event() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let section = doc
            .split("## Trace event-log format")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("EXPERIMENTS.md has a trace event-log format section");
        let mut documented: Vec<(String, Vec<String>)> = section
            .lines()
            .filter_map(|line| {
                let mut cells = line.strip_prefix("| `")?.split(" | ");
                let kind = cells.next()?.trim_end_matches('`').to_string();
                // The header row's second cell is `Fields`, not a list.
                let fields = cells
                    .next()
                    .filter(|cell| cell.starts_with('`'))?
                    .split(", ")
                    .map(|f| f.trim_matches('`').to_string())
                    .collect();
                Some((kind, fields))
            })
            .collect();
        let mut declared: Vec<(String, Vec<String>)> = Event::SCHEMA
            .iter()
            .map(|(kind, fields)| {
                let fields = fields
                    .iter()
                    .map(|(name, ty)| {
                        let mark = if ty.starts_with("Option") { "?" } else { "" };
                        format!("{name}{mark}")
                    })
                    .collect();
                (kind.to_string(), fields)
            })
            .collect();
        documented.sort();
        declared.sort();
        assert_eq!(documented, declared);
    }

    #[test]
    fn disabled_collector_drops_events() {
        let c = EventCollector::default();
        c.emit(Event::JobEnd {
            job_id: 0,
            wall_micros: 1,
        });
        assert!(c.drain().is_empty());
        c.set_enabled(true);
        c.emit(Event::JobEnd {
            job_id: 1,
            wall_micros: 2,
        });
        assert_eq!(c.drain().len(), 1);
        assert!(c.drain().is_empty(), "drain must consume");
    }

    /// Escaping audit: every string-carrying field must survive adversarial
    /// content — quotes, backslashes, control characters, multi-byte UTF-8,
    /// and text that *looks* like JSON or like an escape sequence. (The
    /// writer escapes `"`/`\\`/`\n`/`\t`/`\r` symbolically and every other
    /// control byte as `\\uXXXX`; the parser is the inverse.)
    #[test]
    fn adversarial_strings_round_trip() {
        let nasty = [
            "quote\" backslash\\ newline\n tab\t cr\r",
            "\u{0}\u{1}\u{1f} low control bytes",
            "del \u{7f} snowman ☃ clef 𝄞 replacement \u{fffd}",
            "looks-like-escape \\u0041 \\n \\\" \\\\",
            "{\"type\":\"job_start\",\"label\":\"fake\"}",
            "[1,2,3],{},null,true",
            "",
        ];
        for s in nasty {
            let events = vec![
                Event::JobStart {
                    job_id: 0,
                    label: s.into(),
                    at_micros: 0,
                },
                Event::PlanChosen {
                    chosen: s.into(),
                    auto: false,
                    partitions: 1,
                    est_shuffle_bytes: 0,
                    candidates: vec![(s.into(), u64::MAX)],
                    at_micros: 1,
                },
                Event::StageStart {
                    stage_id: 0,
                    job_id: None,
                    label: s.into(),
                    tag: Some(s.into()),
                    lineage: Some(s.into()),
                    tasks: 1,
                    at_micros: 2,
                },
            ];
            let back = parse_events(&to_json(&events))
                .unwrap_or_else(|e| panic!("string {s:?} broke the round trip: {e}"));
            assert_eq!(events, back, "string {s:?} did not round-trip");
        }
    }

    #[test]
    fn parse_rejects_malformed_logs() {
        assert!(parse_events("{\"type\":\"job_end\"}").is_err());
        assert!(parse_events("[{\"type\":\"mystery\"}]").is_err());
        assert!(parse_events("[").is_err());
        assert!(parse_events("[] trailing").is_err());
        // 2^32 does not fit `attempt: u32`; it must not wrap to attempt 0.
        assert!(parse_events(
            "[{\"type\":\"task_end\",\"stage_id\":0,\"task\":0,\"attempt\":4294967296,\
             \"wall_micros\":0,\"ok\":true,\"injected\":false}]"
        )
        .is_err());
    }

    #[test]
    fn empty_log_round_trips() {
        assert_eq!(parse_events(&to_json(&[])).unwrap(), Vec::<Event>::new());
    }
}
