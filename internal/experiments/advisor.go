package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/apps"
	"paragonio/internal/cache"
	"paragonio/internal/core"
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
	app        apps.Run                           // the workload the advice is validated on
	headline   string                             // the headline operation's column name
	opTime     func(*RunSummary) time.Duration
	oracle     []string // tierLadders the candidate pool is drawn from
}

// tierLadders are the application-scale what-if ladders by experiment
// id; the advisor's oracle pools draw their candidates from them.
var tierLadders = map[string]func() []variant{
	"cachewhatif": cacheVariants,
	"clientcache": clientVariants,
	"logtier":     logTierVariants,
}

// oracleRow is one candidate configuration from the existing sweeps.
type oracleRow struct {
	label string
	t     time.Duration
}

// oraclePool runs the loop's workload under every tiers-on rung of its
// oracle ladders (the baseline is scored separately), in ladder order.
func (loop advisorLoop) oraclePool(s *Suite) ([]oracleRow, error) {
	var rows []oracleRow
	for _, ladder := range loop.oracle {
		for _, v := range tierLadders[ladder]() {
			if !v.tiers.Enabled() {
				continue
			}
			res, err := s.underTiers(loop.app, v.tiers)
			if err != nil {
				return nil, err
			}
			rows = append(rows, oracleRow{label: ladder + "/" + v.id, t: loop.opTime(res)})
		}
	}
	return rows, nil
}

// advisorLoops returns the closed loops. The read-dominated carbon-
// monoxide loop leaves the logtier rungs out of its pool: the log tier
// never serves reads, so its rungs cannot be oracle-best there, and the
// 256-node reruns are the suite's most expensive.
func advisorLoops() []advisorLoop {
	return []advisorLoop{
		{
			id:         "eth",
			title:      "ESCAT C (ethylene) staging",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.Ethylene("A") },
			app:        ethC,
			headline:   "quad_write_s",
			opTime:     quadWrite,
			oracle:     []string{"cachewhatif", "logtier"},
		},
		{
			id:         "prism",
			title:      "PRISM C restart",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.Prism("A") },
			app:        prismC,
			headline:   "rst_read_s",
			opTime:     restartRead,
			oracle:     []string{"cachewhatif", "clientcache", "logtier"},
		},
		{
			id:         "co",
			title:      "ESCAT C (carbon monoxide) reload",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.CarbonMonoxide() },
			app:        coC,
			headline:   "quad_read_s",
			opTime:     quadRead,
			oracle:     []string{"cachewhatif", "clientcache"},
		},
	}
}

// advisorExp runs every closed loop and renders the comparison.
func advisorExp(s *Suite) (*Artifact, error) {
	var b strings.Builder
	art := &Artifact{ID: "advisor"}
	for i, loop := range advisorLoops() {
		src, err := loop.adviseFrom(s)
		if err != nil {
			return nil, err
		}
		plan := policy.AdviseTiers(policy.Classify(src.Trace), policy.CacheOptions{})

		base, err := s.underTiers(loop.app, cache.Tiers{})
		if err != nil {
			return nil, err
		}
		advised, err := s.underTiers(loop.app, plan.Tiers)
		if err != nil {
			return nil, err
		}
		pool, err := loop.oraclePool(s)
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

		pair(art, loop.id+"."+loop.headline, inSecs(loop.opTime), base, advised)
		art.Measured[loop.id+".oracle_"+loop.headline] = best.t.Seconds()
		pair(art, loop.id+".pct_of_oracle", func(p float64) float64 { return p }, 100, pct)
	}
	art.Text = b.String()
	art.Notes = "Not a paper artifact: the self-tuning step the paper's " +
		"conclusion calls for. The 'baseline' column is each workload's " +
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
		"sized to the observed reuse span."
	return art, nil
}
