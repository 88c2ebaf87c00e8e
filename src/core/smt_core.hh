/**
 * @file
 * The POWER5-like two-way SMT core.
 *
 * A cycle-driven out-of-order core with the structure the paper's effects
 * hinge on:
 *
 *  - decode: 5-wide, one thread per cycle, slots allocated by the
 *    software-controlled priority mechanism (R-1:1 of R), gated by the
 *    dynamic resource balancer and by GCT space;
 *  - dispatch in groups into the shared Global Completion Table;
 *  - out-of-order issue, oldest-first, to 2 FX + 2 LS + 2 FP + 1 BR
 *    units; loads need LMQ entries when they miss L1;
 *  - branch resolution at execute with stream rewind + redirect penalty;
 *  - in-order group commit per thread, where "or X,X,X" priority nops
 *    take effect subject to privilege (Table 1).
 */

#ifndef P5SIM_CORE_SMT_CORE_HH
#define P5SIM_CORE_SMT_CORE_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <memory>

#include "branch/bht.hh"
#include "common/annotate.hh"
#include "common/stats.hh"
#include "core/balancer.hh"
#include "core/decode_arbiter.hh"
#include "core/fu_pool.hh"
#include "core/gct.hh"
#include "core/issue_queue.hh"
#include "core/lsu.hh"
#include "core/params.hh"
#include "core/thread_state.hh"
#include "mem/hierarchy.hh"
#include "mem/lmq.hh"

namespace p5 {

namespace check {
class CheckRegistry;
} // namespace check

/** One SMT core. */
class SmtCore
{
  public:
    /**
     * @param shared_backside chip-shared L2/L3/DRAM; nullptr gives the
     *        core a private one (single-core experiments).
     */
    explicit SmtCore(const CoreParams &params,
                     MemBackside *shared_backside = nullptr);
    ~SmtCore();

    SmtCore(const SmtCore &) = delete;
    SmtCore &operator=(const SmtCore &) = delete;

    // --- thread management -------------------------------------------

    /**
     * Bind @p program (any InstrSource: synthetic or trace replay) to
     * hardware thread @p tid and give it priority @p priority. A
     * freshly constructed core has both threads shut off (priority 0),
     * so attaching a single thread yields ST mode.
     */
    void attachThread(ThreadId tid, const InstrSource *program,
                      int priority = default_priority,
                      PrivilegeLevel privilege = PrivilegeLevel::User);

    /** Shut the thread off (priority 0) and drop its state. */
    void detachThread(ThreadId tid);

    bool threadAttached(ThreadId tid) const;

    // --- priorities ---------------------------------------------------

    /** Set both priorities directly (the hypervisor/experiment path). */
    void setPriorityPair(int prio_p, int prio_s);

    /**
     * Checked priority request on behalf of @p tid's software at
     * privilege @p priv; a nop (returns false) when not permitted —
     * exactly the or-nop semantics.
     */
    bool requestPriority(ThreadId tid, int prio, PrivilegeLevel priv);

    int priorityOf(ThreadId tid) const;

    /** Called after every committed PrioNop: (tid, level, applied). */
    using PrioNopListener = std::function<void(ThreadId, int, bool)>;
    void setPrioNopListener(PrioNopListener fn);

    // --- simulation ---------------------------------------------------

    /** Advance one cycle. */
    P5_HOT_PATH void tick();

    /**
     * Advance @p cycles cycles: the one-core case of advance(). With
     * params().fastForward (the default) verified-idle gaps are
     * skipped in one jump; every observable stat is bit-identical to
     * ticking each cycle.
     */
    P5_HOT_PATH void run(Cycle cycles);

    /**
     * Run until thread @p tid has completed @p executions program
     * executions, or @p max_cycles elapse.
     *
     * @return true when the target was reached.
     */
    P5_HOT_PATH bool runUntilExecutions(ThreadId tid,
                                        std::uint64_t executions,
                                        Cycle max_cycles);

    /**
     * advance() over this core alone, to cycle @p end or until
     * @p stop() holds. The arming streak persists across calls, so a
     * sliced run probes and ticks exactly like an unsliced one.
     */
    template <class Stop> P5_HOT_PATH bool runUntil(Cycle end, Stop &&stop);

    Cycle cycle() const { return cycle_; }

    // --- observation ----------------------------------------------------

    std::uint64_t committedOf(ThreadId tid) const;
    std::uint64_t executionsOf(ThreadId tid) const;
    Cycle lastExecutionCycleOf(ThreadId tid) const;

    /** Committed instructions of @p tid per elapsed cycle. */
    double ipcOf(ThreadId tid) const;

    /** Sum of both threads' IPC. */
    double totalIpc() const;

    const CoreParams &params() const { return params_; }
    ThreadState &thread(ThreadId tid);
    const ThreadState &thread(ThreadId tid) const;
    Gct &gct() { return gct_; }
    const Gct &gct() const { return gct_; }
    Lmq &lmq() { return lmq_; }
    const Lmq &lmq() const { return lmq_; }
    Lsu &lsu() { return lsu_; }
    const Lsu &lsu() const { return lsu_; }
    Bht &bht() { return bht_; }
    CacheHierarchy &hierarchy() { return hierarchy_; }
    const CacheHierarchy &hierarchy() const { return hierarchy_; }
    DecodeArbiter &arbiter() { return arbiter_; }
    const DecodeArbiter &arbiter() const { return arbiter_; }
    Balancer &balancer() { return balancer_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    FuPool &fuPool() { return fuPool_; }
    const FuPool &fuPool() const { return fuPool_; }
    IssueQueue &readyQueue() { return readyQ_; }
    const IssueQueue &readyQueue() const { return readyQ_; }

    // --- runtime verification (p5check) --------------------------------

    /**
     * The core's invariant-checker registry, created on first use.
     * Registered checkers run at the end of every tick(); a core whose
     * registry was never touched pays one null-pointer test per cycle.
     * Checked builds (-DP5SIM_CHECK=ON) install the standard suite in
     * fatal mode at construction.
     */
    check::CheckRegistry &checks();

    /** True iff a checker registry exists (without creating one). */
    bool hasChecks() const { return checks_ != nullptr; }

    std::uint64_t
    decodedOf(ThreadId tid) const
    {
        return decoded_[static_cast<size_t>(tid)].value();
    }

    /**
     * Cycles crossed by fast-forward jumps instead of ticks, and probes
     * attempted (successful or not). Observability only — deliberately
     * *not* registered stats, so the stat set stays identical with
     * fastForward on and off.
     */
    std::uint64_t idleCyclesSkipped() const { return idleSkipped_; }
    std::uint64_t fastForwardProbes() const { return ffProbes_; }

    // --- the time-advance body ----------------------------------------

    /**
     * Side-effect-free replica of the per-cycle gating: the balancer
     * decision and per-thread decode usability at cycle(), plus how
     * each non-usable thread's stall would be classified by
     * decodeStage(). Opaque to callers: advance() fills one per core
     * in idleTarget() and consumes it in skipIdleTo().
     */
    struct IdleGate
    {
        BalancerDecision bd;
        std::array<bool, num_hw_threads> canUse{};
        enum class Stall : std::uint8_t
        {
            None,
            Balancer,
            Redirect,
            Gct
        };
        std::array<Stall, num_hw_threads> stall{};
    };

    /**
     * Consecutive no-progress ticks after which advance() probes, so
     * the 1–2 cycle bubbles of compute-bound runs never pay for a
     * (mostly failing) gate replay. An un-probed idle cycle is simply
     * ticked, so arming never changes stats.
     */
    static constexpr std::uint32_t ff_arm_streak = 2;

    /**
     * The simulator's one time-advance body (DESIGN §7). Advances
     * @p cores (SmtCore pointers at one cycle) in lockstep until cycle
     * @p end or until @p stop(), asked before every step, holds. A step
     * arms (fastForward on and @p streak at ff_arm_streak ticks in
     * which no core made progress), probes every core (idleTarget(),
     * one IdleGate each in @p gates), skips all of them to the smallest
     * target when all are idle (skipIdleTo(); a skip stays armed), and
     * otherwise ticks every core in index order. Stats are
     * bit-identical to ticking every cycle. The first core's
     * StageProfile times each probe and its skip into probeNs.
     *
     * @return stop() when the run ends.
     */
    template <class Cores, class Stop>
    P5_HOT_PATH static bool advance(const Cores &cores, IdleGate *gates,
                                    std::uint32_t &streak, Cycle end,
                                    Stop &&stop);

    /**
     * Per-stage wall-time accumulators for `p5sim perf --profile-stages`.
     * While a profile is attached every tick routes through a timed
     * path; detach (nullptr) to restore the untimed hot loop.
     */
    struct StageProfile
    {
        std::uint64_t completionsNs = 0;
        std::uint64_t issueNs = 0;
        std::uint64_t commitNs = 0;
        std::uint64_t decodeNs = 0;
        std::uint64_t probeNs = 0;
        std::uint64_t timedTicks = 0;
        std::uint64_t timedProbes = 0;
    };

    void setStageProfile(StageProfile *profile) { profile_ = profile; }

    // --- checkpointing --------------------------------------------------

    /**
     * Serialize the core's complete mutable state — cycle, per-thread
     * windows/streams, all pipeline structures, the memory hierarchy and
     * every counter — such that a core restored from the stream produces
     * bit-identical stats to one that kept running. The params and
     * attached programs are NOT in the stream: restoreState() requires a
     * core constructed with the same params and the same threads already
     * attached (that is what the checkpoint key guarantees).
     * @pre the hierarchy backside is private (no shared-backside chips).
     * Serialize root (p5lint): nothing in this call tree may iterate an
     * unordered container, and it must stay unreachable from hot roots.
     */
    P5_SERIALIZE_ROOT P5_COLD void saveState(class CkptWriter &w) const;

    /**
     * Restore state saved by saveState(). @pre this core was constructed
     * with the same CoreParams and had the same programs attached at the
     * same priorities as the saved core at save time. Checkers re-arm on
     * the restored state via their first-observation priming.
     */
    P5_SERIALIZE_ROOT P5_COLD void restoreState(class CkptReader &r);

  private:
    /** The checkpoint body behind both entry points (ckpt_state.cc). */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

    /** Pending completion (32 bytes: the 4-byte fields pair up). */
    struct Completion
    {
        Cycle cycle;
        SeqNum seq;
        std::uint64_t epoch;
        ThreadId tid;
        std::uint32_t slot; ///< window slot, for O(1) resolve
    };
    struct CompletionLater
    {
        bool
        operator()(const Completion &a, const Completion &b) const
        {
            return a.cycle > b.cycle;
        }
    };

    void processCompletions();
    void issueStage();
    void commitStage();
    void decodeStage();

    /** tick() body with per-stage timing (profile attached). */
    void tickTimed();

    // --- idle-cycle fast-forward --------------------------------------

    /**
     * The probe: when cycle() is provably idle for this core, return
     * the earliest cycle in (cycle(), limit] at which anything can
     * happen here and fill @p gate; return cycle() itself when this
     * cycle has work. Counts as a fast-forward probe; no other side
     * effects.
     */
    P5_PROBE_PURE Cycle idleTarget(Cycle limit, IdleGate *gate) const;

    /**
     * The skip: jump cycle() to @p target across a gap idleTarget()
     * verified (with the gate it filled), advancing the stall,
     * balancer and slot-forfeit counters by exactly what
     * (target - cycle()) individual ticks would have added, then
     * notifying the checkers' skip protocol. @p target may be earlier
     * than this core's own idleTarget(), which is what lets advance()
     * jump every core to the smallest target.
     */
    void skipIdleTo(Cycle target, const IdleGate &gate);

    using Clock = std::chrono::steady_clock;

    static std::uint64_t
    nsBetween(Clock::time_point a, Clock::time_point b)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
    }

    /** Charges its lifetime to a profile's probe time (none: no-op). */
    struct ProbeClock
    {
        StageProfile *profile;
        Clock::time_point t0 = profile ? Clock::now() : Clock::time_point{};
        ~ProbeClock()
        {
            if (profile) {
                profile->probeNs += nsBetween(t0, Clock::now());
                ++profile->timedProbes;
            }
        }
    };

    /**
     * Probe whether decode could make progress (or mutate state) at
     * cycle_. Returns false — "activity, must tick" — when the slot
     * owner (or a work-conserving sibling) could decode, or when a
     * balancer flush would actually drop instructions. Fills @p gate
     * for skipIdleTo()'s arithmetic counter advance.
     */
    P5_PROBE_PURE bool probeDecodeIdle(IdleGate *gate) const;

    /** True iff thread t's oldest GCT group would commit at cycle_. */
    P5_PROBE_PURE bool commitReady(ThreadId t) const;

    /**
     * Earliest cycle in (cycle_, limit] at which anything can happen,
     * or cycle_ itself when this cycle has work. Conservative events
     * (a component state change that may not unblock anything) are
     * fine — the loop re-probes at every stop; missing a real event is
     * not, so every quantity the gating consults maps to an event
     * source here.
     */
    P5_PROBE_PURE Cycle nextInterestingCycle(Cycle limit,
                                             const IdleGate &gate) const;

    /** Rename and link the freshly fetched window slot @p e. */
    void dispatchOne(ThreadState &ts, InFlight &e, std::uint32_t gct_group);
    void pushReady(ThreadState &ts, InFlight &e);
    /** Wake and empty @p e's wake list (e just finished). */
    void wakeDependents(ThreadState &ts, InFlight &e);
    void squashAfter(ThreadState &ts, SeqNum last_good_seq,
                     bool redirect_penalty);
    void flushDispatched(ThreadState &ts);

    /**
     * Recount the unfinished instructions of @p ts's GCT groups from
     * logical index @p first to the youngest, and re-point their window
     * entries' group handles: after a squash truncated the youngest
     * group (first = youngest) and after a restore (first = 0).
     */
    void recountGroups(ThreadState &ts, int first);
    void registerStats();

    CoreParams params_;
    CacheHierarchy hierarchy_;
    Lmq lmq_;
    Lsu lsu_;
    Bht bht_;
    Gct gct_;
    FuPool fuPool_;
    IssueQueue readyQ_;
    DecodeArbiter arbiter_;
    Balancer balancer_;
    std::array<std::unique_ptr<ThreadState>, num_hw_threads> threads_;

    Cycle cycle_ = 0;
    std::uint64_t idleSkipped_ = 0;
    // mutable: probe accounting, not simulation state — idleTarget() is
    // const (P5_PROBE_PURE) yet counts its own invocations.
    mutable std::uint64_t ffProbes_ = 0;
    std::uint64_t dispatchStamp_ = 0;

    /**
     * Adaptive-probe state: tick() clears tickProgress_ and the stages
     * set it on any state mutation; advance() counts consecutive
     * no-progress ticks and only probes once the streak reaches
     * ff_arm_streak. idleStreak_ is runUntil()'s streak, kept across
     * calls (FAME runs a measurement as many short run() slices).
     */
    bool tickProgress_ = false;
    std::uint32_t idleStreak_ = ff_arm_streak;

    StageProfile *profile_ = nullptr;

    /**
     * Pending completion events as an explicit binary heap over a plain
     * vector (std::push_heap / std::pop_heap with CompletionLater).
     * Equivalent to the std::priority_queue it replaces — the adaptor is
     * specified in terms of the same heap algorithms, so pop order is
     * identical — but the underlying array is directly serializable for
     * checkpoints (and restorable verbatim, preserving heap layout).
     */
    std::vector<Completion> completions_;

    PrioNopListener prioNopListener_;

    std::unique_ptr<check::CheckRegistry> checks_;

    StatGroup stats_;
    std::array<Counter, num_hw_threads> decoded_;
    std::array<Counter, num_hw_threads> stallBalancer_;
    std::array<Counter, num_hw_threads> stallRedirect_;
    std::array<Counter, num_hw_threads> stallGct_;
    std::array<Counter, num_hw_threads> flushedInstrs_;
};

template <class Stop>
bool
SmtCore::runUntil(Cycle end, Stop &&stop)
{
    const std::array<SmtCore *, 1> self{this};
    IdleGate gate;
    return advance(self, &gate, idleStreak_, end, stop);
}

template <class Cores, class Stop>
bool
SmtCore::advance(const Cores &cores, IdleGate *gates,
                 std::uint32_t &streak, Cycle end, Stop &&stop)
{
    const std::size_t n = cores.size();
    SmtCore &lead = *cores[0];
    const bool ff = lead.params_.fastForward;
    while (lead.cycle_ < end) {
        if (stop())
            return true;
        if (ff && streak >= ff_arm_streak) {
            const ProbeClock probe_clock{lead.profile_};
            Cycle target = end;
            std::size_t idle = 0;
            for (; idle < n; ++idle) {
                SmtCore &core = *cores[idle];
                const Cycle t = core.idleTarget(end, &gates[idle]);
                if (t <= core.cycle_)
                    break;
                target = std::min(target, t);
            }
            if (idle == n) {
                for (std::size_t c = 0; c < n; ++c) {
                    SmtCore &core = *cores[c];
                    core.skipIdleTo(target, gates[c]);
                }
                // Stay armed: event sources are conservative, so the
                // landing cycle may still be idle.
                continue;
            }
        }
        bool progress = false;
        for (std::size_t c = 0; c < n; ++c) {
            SmtCore &core = *cores[c];
            core.tick();
            progress = progress || core.tickProgress_;
        }
        streak = progress ? 0 : streak + 1;
    }
    return stop();
}

} // namespace p5

#endif // P5SIM_CORE_SMT_CORE_HH
