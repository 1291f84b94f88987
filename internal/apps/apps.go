// Package apps is the catalogue of the paper's application runs: it
// turns an (app, dataset, version) spelling into one named Run, so every
// command, the daemon and the experiment suite agree on which run a name
// means and on the identity string its results are keyed by.
package apps

import (
	"context"
	"fmt"
	"strings"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
)

// Run is one application run of the catalogue: an app, its dataset and a
// code version, in canonical spelling. Runs come from Lookup.
type Run struct {
	App     string // "escat" or "prism"
	Dataset string // escat: "ethylene" or "co"; prism: ""
	Version string // escat: A A2 B1 B2 B3 B C; prism: A B C

	exec func(ctx context.Context, cfg core.Config) (*core.Result, error)
}

// Identity is the run's one name, the string its content address hashes
// (experiments.ConfigKey): "escat/ethylene/C", "escat/co/C", "prism/C".
func (r Run) Identity() string {
	if r.Dataset != "" {
		return r.App + "/" + r.Dataset + "/" + r.Version
	}
	return r.App + "/" + r.Version
}

// Exec simulates the run on the platform cfg selects; cfg.Nodes 0 means
// the dataset's node count. An expiring or cancelled ctx aborts it.
func (r Run) Exec(ctx context.Context, cfg core.Config) (*core.Result, error) {
	return r.exec(ctx, cfg)
}

// FieldError is a Lookup failure; Field names the argument it is about:
// "app", "dataset" or "version".
type FieldError struct {
	Field, Msg string
}

func (e *FieldError) Error() string { return e.Msg }

func fieldErrorf(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Lookup resolves a run, case-insensitively. An escat dataset is
// "ethylene" (the default, also spelled "") or "co" (also spelled
// "carbon-monoxide"), and version C on co is the staged-restart build
// escat.VersionCCarbonMonoxide. Prism takes no dataset.
func Lookup(app, dataset, version string) (Run, error) {
	dataset = strings.ToLower(dataset)
	switch strings.ToLower(app) {
	case "escat":
		var d escat.Dataset
		switch dataset {
		case "", "ethylene":
			d, dataset = escat.Ethylene(), "ethylene"
		case "co", "carbon-monoxide":
			d, dataset = escat.CarbonMonoxide(), "co"
		default:
			return Run{}, fieldErrorf("dataset", "unknown escat dataset %q (want ethylene or co)", dataset)
		}
		v, ok := escatVersion(version, dataset)
		if !ok {
			return Run{}, fieldErrorf("version", "unknown escat version %q (want A, A2, B1, B2, B3, B, or C)", version)
		}
		return Run{App: "escat", Dataset: dataset, Version: v.ID,
			exec: func(ctx context.Context, cfg core.Config) (*core.Result, error) { return escat.Run(ctx, cfg, d, v) }}, nil
	case "prism":
		if dataset != "" {
			return Run{}, fieldErrorf("dataset", "prism takes no dataset (got %q)", dataset)
		}
		for _, v := range prism.PaperVersions() {
			if strings.EqualFold(v.ID, version) {
				return Run{App: "prism", Version: v.ID,
					exec: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
						return prism.Run(ctx, cfg, prism.TestProblem(), v)
					}}, nil
			}
		}
		return Run{}, fieldErrorf("version", "unknown prism version %q (want A, B, or C)", version)
	case "":
		return Run{}, fieldErrorf("app", "missing app (want escat or prism)")
	}
	return Run{}, fieldErrorf("app", "unknown app %q (want escat or prism)", strings.ToLower(app))
}

// escatVersion resolves an escat version id: one of the Figure 1
// progression builds, or "B" for the B-family structure of Tables 1-3.
func escatVersion(id, dataset string) (escat.Version, bool) {
	if strings.EqualFold(id, "C") && dataset == "co" {
		return escat.VersionCCarbonMonoxide(), true
	}
	for _, v := range append(escat.Progressions(), escat.VersionB()) {
		if strings.EqualFold(v.ID, id) {
			return v, true
		}
	}
	return escat.Version{}, false
}
