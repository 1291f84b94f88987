package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/policy"
	"paragonio/internal/report"
)

// The advisor experiment closes the loop the paper's conclusion asks
// for: instead of hand-tuning (PRISM's programmers spent months on
// their buffering), the file system derives the cache configuration
// from the observed access pattern. For each workload the loop is
// advise -> configure -> re-run -> measure: classify a trace
// (policy.Classify), merge the cache findings into one cache.Tiers
// (policy.AdviseTiers), re-run the workload under the advised tiers,
// and score the advised run against both the no-cache baseline and the
// oracle-best configuration of the existing cachewhatif/clientcache
// sweeps. Where the advisor has a version-A trace (ESCAT ethylene,
// PRISM), it advises from the UNTUNED version-A run — the advice must
// not depend on the eighteen months of tuning it replaces — and is
// validated on the version-C workload the sweeps measure.

// advisorLoop is one workload's closed loop.
type advisorLoop struct {
	id         string
	title      string
	adviseFrom func(*Suite) (*core.Result, error) // trace the advisor reads
	baseline   func(*Suite) (*RunSummary, error)  // canonical cache-off run
	run        runFunc                            // the workload the advice is validated on
	headline   string                             // the headline operation's column name
	opTime     func(*RunSummary) time.Duration
	oracle     func(*Suite) ([]oracleRow, error) // existing-sweep candidate pool
}

// oracleRow is one candidate configuration from the existing sweeps.
type oracleRow struct {
	label string
	t     time.Duration
}

func quadTime(res *RunSummary, op pablo.Op) time.Duration {
	return fileOpTime(res, op, func(f string) bool {
		return strings.HasPrefix(f, escat.QuadFile(0)[:len("escat/quad.")])
	})
}

func restartReadTime(res *RunSummary) time.Duration {
	return fileOpTime(res, pablo.OpRead, func(f string) bool {
		return f == prism.RestartFile
	})
}

// advisedRun reruns a workload under the advised tiers through the
// suite cache, so iotables/iobench invocations share the work.
func (s *Suite) advisedRun(key string, tiers cache.Tiers, run runFunc) (*RunSummary, error) {
	cfg := s.cfg()
	cfg.Tiers = tiers
	return s.measure("advisor/"+key, cfg, run)
}

func advisorLoops() []advisorLoop {
	cachePool := func(s *Suite, fetch func(cacheVariant) (*RunSummary, error),
		opTime func(*RunSummary) time.Duration) ([]oracleRow, error) {
		var rows []oracleRow
		for _, v := range cacheVariants() {
			if v.cfg == nil {
				continue // the baseline is scored separately
			}
			res, err := fetch(v)
			if err != nil {
				return nil, err
			}
			rows = append(rows, oracleRow{label: "cachewhatif/" + v.id, t: opTime(res)})
		}
		return rows, nil
	}
	clientPool := func(s *Suite, fetch func(clientVariant) (*RunSummary, error),
		opTime func(*RunSummary) time.Duration) ([]oracleRow, error) {
		var rows []oracleRow
		for _, v := range clientVariants() {
			if !v.tiers.Enabled() {
				continue
			}
			res, err := fetch(v)
			if err != nil {
				return nil, err
			}
			rows = append(rows, oracleRow{label: "clientcache/" + v.id, t: opTime(res)})
		}
		return rows, nil
	}
	// logPool adds the log-tier rungs of the logtier study to the search
	// space. The read-dominated carbon-monoxide loop keeps its pool
	// unchanged: the log tier never serves reads, so its rungs cannot be
	// oracle-best there, and the 256-node reruns are the suite's most
	// expensive.
	logPool := func(s *Suite, fetch func(logVariant) (*RunSummary, error),
		opTime func(*RunSummary) time.Duration) ([]oracleRow, error) {
		var rows []oracleRow
		for _, v := range logTierVariants() {
			res, err := fetch(v)
			if err != nil {
				return nil, err
			}
			rows = append(rows, oracleRow{label: "logtier/" + v.id, t: opTime(res)})
		}
		return rows, nil
	}
	return []advisorLoop{
		{
			id:         "eth",
			title:      "ESCAT C (ethylene) staging",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.Ethylene("A") },
			baseline:   func(s *Suite) (*RunSummary, error) { return summaryOf(s.ethylene("C")) },
			run:        runEthylene(escat.VersionC()),
			headline:   "quad_write_s",
			opTime:     func(res *RunSummary) time.Duration { return quadTime(res, pablo.OpWrite) },
			oracle: func(s *Suite) ([]oracleRow, error) {
				rows, err := cachePool(s, s.EthyleneCached,
					func(res *RunSummary) time.Duration { return quadTime(res, pablo.OpWrite) })
				if err != nil {
					return nil, err
				}
				more, err := logPool(s, s.EthyleneLog,
					func(res *RunSummary) time.Duration { return quadTime(res, pablo.OpWrite) })
				if err != nil {
					return nil, err
				}
				return append(rows, more...), nil
			},
		},
		{
			id:         "prism",
			title:      "PRISM C restart",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.Prism("A") },
			baseline:   func(s *Suite) (*RunSummary, error) { return summaryOf(s.prism("C")) },
			run:        runPrism(prism.VersionC()),
			headline:   "rst_read_s",
			opTime:     restartReadTime,
			oracle: func(s *Suite) ([]oracleRow, error) {
				rows, err := cachePool(s, s.PrismCached, restartReadTime)
				if err != nil {
					return nil, err
				}
				more, err := clientPool(s, s.PrismClient, restartReadTime)
				if err != nil {
					return nil, err
				}
				rows = append(rows, more...)
				more, err = logPool(s, s.PrismLog, restartReadTime)
				if err != nil {
					return nil, err
				}
				return append(rows, more...), nil
			},
		},
		{
			id:         "co",
			title:      "ESCAT C (carbon monoxide) reload",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.CarbonMonoxide() },
			baseline:   func(s *Suite) (*RunSummary, error) { return summaryOf(s.carbonMonoxide()) },
			run:        runCarbonMonoxide,
			headline:   "quad_read_s",
			opTime:     func(res *RunSummary) time.Duration { return quadTime(res, pablo.OpRead) },
			oracle: func(s *Suite) ([]oracleRow, error) {
				rows, err := cachePool(s, s.CarbonMonoxideCached,
					func(res *RunSummary) time.Duration { return quadTime(res, pablo.OpRead) })
				if err != nil {
					return nil, err
				}
				more, err := clientPool(s, s.CarbonMonoxideClient,
					func(res *RunSummary) time.Duration { return quadTime(res, pablo.OpRead) })
				if err != nil {
					return nil, err
				}
				return append(rows, more...), nil
			},
		},
	}
}

// advisorExp runs every closed loop and renders the comparison.
func advisorExp(s *Suite) (*Artifact, error) {
	var b strings.Builder
	paper := map[string]float64{}
	measured := map[string]float64{}

	for i, loop := range advisorLoops() {
		src, err := loop.adviseFrom(s)
		if err != nil {
			return nil, err
		}
		plan := policy.AdviseTiers(policy.Classify(src.Trace), policy.CacheOptions{})

		base, err := loop.baseline(s)
		if err != nil {
			return nil, err
		}
		advised, err := s.advisedRun(loop.id, plan.Tiers, loop.run)
		if err != nil {
			return nil, err
		}
		pool, err := loop.oracle(s)
		if err != nil {
			return nil, err
		}
		best := pool[0]
		for _, row := range pool[1:] {
			if row.t < best.t {
				best = row
			}
		}

		baseT, advT := loop.opTime(base), loop.opTime(advised)
		advSpeed := baseT.Seconds() / advT.Seconds()
		oracleSpeed := baseT.Seconds() / best.t.Seconds()
		pct := 100 * advSpeed / oracleSpeed

		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s — advised tiers: %v\n", loop.title, plan.Tiers)
		for _, n := range plan.Notes {
			fmt.Fprintf(&b, "  note: %s\n", n)
		}
		report.Table(&b, "",
			[]string{"config", loop.headline, "speedup", "% of oracle"},
			[][]string{
				{"baseline (no cache)", secs(baseT), "1.00", "-"},
				{"advised", secs(advT), fmt.Sprintf("%.2f", advSpeed), fmt.Sprintf("%.1f", pct)},
				{"oracle-best (" + best.label + ")", secs(best.t), fmt.Sprintf("%.2f", oracleSpeed), "100.0"},
			})

		paper[loop.id+"."+loop.headline] = baseT.Seconds()
		measured[loop.id+"."+loop.headline] = advT.Seconds()
		measured[loop.id+".oracle_"+loop.headline] = best.t.Seconds()
		// 'paper' 100 is the oracle bar, so the summary view shows how
		// much of the oracle-best speedup the advice captured.
		paper[loop.id+".pct_of_oracle"] = 100
		measured[loop.id+".pct_of_oracle"] = pct
	}

	return &Artifact{
		ID:       "advisor",
		Title:    "Closed loop: advised cache tiers vs oracle-best sweeps",
		Text:     b.String(),
		Paper:    paper,
		Measured: measured,
		Notes: "Not a paper artifact: the self-tuning step the paper's " +
			"conclusion calls for. The 'paper' column is each workload's " +
			"no-cache headline operation time; 'measured' is the same " +
			"operation under the tiers the advisor derived from the trace " +
			"(for ESCAT ethylene and PRISM, from the UNTUNED version-A " +
			"trace). The oracle is the best configuration any existing " +
			"cachewhatif/clientcache/logtier sweep found for that workload — the " +
			"advisor does not get to peek at it. The negative findings are " +
			"load-bearing: recommending read-ahead alongside write-behind " +
			"would cost PRISM's restart a third of its win (wbra vs wb in " +
			"the sweeps), and recommending the I/O-node tier for carbon " +
			"monoxide would lose outright — the advisor instead turns the " +
			"server tier off and configures a client tier with a lease TTL " +
			"sized to the observed reuse span.",
	}, nil
}
