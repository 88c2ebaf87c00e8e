#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "driver/commands.hh"
#include "fame/sim_runner.hh"

namespace p5 {

// --- paper views -------------------------------------------------------

const Table &
asIs(const Table &table)
{
    return table;
}

std::vector<Table>
renderFig2(const PrioCurveData &data)
{
    return renderPrioCurves(data, "Figure 2");
}

std::vector<Table>
renderFig3(const PrioCurveData &data)
{
    return renderPrioCurves(data, "Figure 3");
}

std::vector<CaseStudyData>
runFig5Pairs(const ExpConfig &config)
{
    return runFig5({{SpecProxyId::H264ref, SpecProxyId::Mcf},
                    {SpecProxyId::Applu, SpecProxyId::Equake}},
                   config);
}

std::vector<Table>
renderFig5Pairs(const std::vector<CaseStudyData> &data)
{
    std::vector<Table> tables;
    for (const CaseStudyData &d : data)
        tables.push_back(renderFig5(d));
    return tables;
}

void
writeJson(JsonWriter &w, const std::vector<CaseStudyData> &data)
{
    w.beginArray();
    for (const CaseStudyData &d : data)
        writeJson(w, d);
    w.endArray();
}

namespace {

// --- ablation ----------------------------------------------------------

/** One ablation row: a label, the FAME pair it simulates, the result. */
struct AblationRow
{
    std::string name;
    SimJob job;
    FameResult result;
};

/** One ablation table: its title and rows. */
struct AblationSection
{
    std::string title;
    std::vector<AblationRow> rows;
};

/** The ablation studies, enumerated as SimJobs in table order. */
std::vector<AblationSection>
ablationSections(const ExpConfig &base)
{
    using Variants = std::vector<std::pair<std::string, CoreParams>>;
    auto ub = [&base](UbenchId id) {
        return ProgramSpec::ubench(id, base.ubenchScale);
    };
    auto spec = [&base](SpecProxyId id) {
        return ProgramSpec::spec(id, base.ubenchScale);
    };
    // The base core with one edit: rows differ from the base config in
    // core parameters only.
    auto with = [&base](const std::function<void(CoreParams &)> &edit) {
        CoreParams core = base.core;
        edit(core);
        return core;
    };
    std::vector<AblationSection> sections;
    // One section: one pair at one priority pair under each variant.
    auto section = [&](std::string title, const ProgramSpec &p,
                       const ProgramSpec &s, int prio_p, int prio_s,
                       const Variants &variants) {
        AblationSection &sec = sections.emplace_back();
        sec.title = std::move(title);
        for (const auto &[name, core] : variants) {
            SimJob job = SimJob::famePair(p, s, prio_p, prio_s, core,
                                          base.fame);
            job.configTag = base.configTag;
            job.warmTag = base.warmTag;
            sec.rows.push_back(AblationRow{name, std::move(job), {}});
        }
    };

    section("Ablation 1: balancer on/off — h264ref + mcf at (4,4) (the "
            "window-sensitive thread needs GCT protection)",
            spec(SpecProxyId::H264ref), spec(SpecProxyId::Mcf), 4, 4,
            {{"balancer on", base.core},
             {"balancer off",
              with([](CoreParams &c) { c.balancer.enabled = false; })}});
    section("Ablation 2: strict vs work-conserving decode slots — br_hit "
            "+ ldint_mem at (4,4) (the decode-hungry thread could use the "
            "memory thread's dead slots)",
            ub(UbenchId::BrHit), ub(UbenchId::LdintMem), 4, 4,
            {{"strict slots (POWER5)", base.core},
             {"work-conserving",
              with([](CoreParams &c) { c.workConservingSlots = true; })}});
    Variants widths;
    for (int width : {1, 2, 5})
        widths.emplace_back(
            "width " + std::to_string(width),
            with([width](CoreParams &c) { c.minoritySlotWidth = width; }));
    section("Ablation 3: minority-slot width — cpu_int + cpu_int at (2,6), "
            "PThread is the minority",
            ub(UbenchId::CpuInt), ub(UbenchId::CpuInt), 2, 6, widths);
    section("Ablation 4: priority-aware GCT threshold — h264ref + mcf at "
            "(6,2) (prioritization must release the window)",
            spec(SpecProxyId::H264ref), spec(SpecProxyId::Mcf), 6, 2,
            {{"priority-aware", base.core},
             {"fixed threshold", with([](CoreParams &c) {
                  c.balancer.priorityAwareGct = false;
              })}});
    section("Ablation 5: priority-aware table walker — ldint_mem + "
            "ldint_mem at (6,2)",
            ub(UbenchId::LdintMem), ub(UbenchId::LdintMem), 6, 2,
            {{"priority-aware", base.core},
             {"FCFS walker",
              with([](CoreParams &c) { c.priorityAwareWalker = false; })}});
    Variants lmqs;
    for (int entries : {2, 4, 8, 16})
        lmqs.emplace_back(std::to_string(entries) + " entries",
                          with([entries](CoreParams &c) {
                              c.lmqEntries = entries;
                              c.balancer.lmqThreshold = std::min(
                                  c.balancer.lmqThreshold, entries);
                          }));
    section("Ablation 6: LMQ size — ldint_l2 + ldint_l2 at (4,4)",
            ub(UbenchId::LdintL2), ub(UbenchId::LdintL2), 4, 4, lmqs);
    return sections;
}

/**
 * All ablation rows run as one batch through the producers' runner
 * and cache, so rows that repeat a paper point (e.g. the balancer-on
 * h264ref + mcf row is Fig. 5's diff 0) reuse it in-process.
 */
} // namespace

int
cmdAblation(const Cli &, DriverContext &ctx, ExpConfig &base)
{
    std::vector<AblationSection> sections = ablationSections(base);
    std::vector<SimJob> batch;
    for (const AblationSection &sec : sections)
        for (const AblationRow &r : sec.rows)
            batch.push_back(r.job);

    SimRunner runner(base.jobs, base.cache);
    runner.setCheckpoints(base.checkpoints);
    const std::vector<SimResult> res = runner.run(batch);
    std::size_t next = 0;
    for (AblationSection &sec : sections)
        for (AblationRow &r : sec.rows)
            r.result = res[next++].fame;

    for (const AblationSection &sec : sections) {
        Table t(sec.title);
        t.setColumns({"config", "PThread IPC", "SThread IPC", "total"});
        for (const AblationRow &r : sec.rows)
            t.addRow({r.name, Table::fmt(r.result.thread[0].avgIpc(), 3),
                      Table::fmt(r.result.thread[1].avgIpc(), 3),
                      Table::fmt(r.result.totalIpc(), 3)});
        printTable(ctx, t);
    }

    writeReport(ctx, base, [&](JsonWriter &w) {
        w.beginArray();
        for (const AblationSection &sec : sections) {
            w.beginObject();
            w.member("title", sec.title);
            w.key("rows");
            w.beginArray();
            for (const AblationRow &r : sec.rows) {
                w.beginObject();
                w.member("config", r.name);
                w.member("ipcP", r.result.thread[0].avgIpc());
                w.member("ipcS", r.result.thread[1].avgIpc());
                w.member("total", r.result.totalIpc());
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
    });
    return 0;
}

} // namespace p5
