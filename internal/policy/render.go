package policy

import (
	"fmt"
	"io"

	"paragonio/internal/report"
)

// WriteAdvice renders the advisor's full output for a classified trace:
// the access-mode recommendations (Advise), the per-file cache findings
// and the merged cache.Tiers plan with its merge notes (AdviseTiers).
// Every CLI surface that prints advice (iotrace advise, iosim -advise)
// goes through this one renderer, and docs/ADVISOR.md's worked
// transcript is golden-file-tested against it.
func WriteAdvice(w io.Writer, profiles map[string]*Profile, opt Options, copt CacheOptions) error {
	if err := writeRecs(w, AdviseAll(profiles, opt), "File system policy advice",
		"no access-mode recommendations: observed patterns already fit the file system"); err != nil {
		return err
	}
	plan := AdviseTiers(profiles, copt)
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := writeRecs(w, plan.Recs, "Cache configuration advice",
		"no cache recommendations: no reuse a cache tier could serve"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nsuggested cache tiers: %v\n", plan.Tiers); err != nil {
		return err
	}
	for _, n := range plan.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// writeRecs renders recs as a titled table, or the line none when there
// are none.
func writeRecs(w io.Writer, recs []Recommendation, title, none string) error {
	if len(recs) == 0 {
		_, err := fmt.Fprintln(w, none)
		return err
	}
	rows := make([][]string, 0, len(recs))
	for _, r := range recs {
		rows = append(rows, []string{r.File, r.Kind.String(), r.Reason})
	}
	return report.Table(w, title, []string{"File", "Recommendation", "Why"}, rows)
}
