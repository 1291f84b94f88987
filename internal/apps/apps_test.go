package apps

import (
	"context"
	"errors"
	"slices"
	"testing"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
)

// TestLookupSpellings pins the catalogue's spellings: every accepted
// spelling of each of the seven canonical paper runs, and of the other
// Figure 1 builds, resolves to one identity.
func TestLookupSpellings(t *testing.T) {
	for identity, spellings := range map[string][][3]string{
		"escat/ethylene/A": {{"escat", "ethylene", "A"}, {"ESCAT", "", "a"}, {"Escat", "Ethylene", "A"}},
		"escat/ethylene/B": {{"escat", "ethylene", "B"}, {"escat", "", "b"}, {"escat", "ETHYLENE", "B"}},
		"escat/ethylene/C": {{"escat", "ethylene", "C"}, {"escat", "", "c"}, {"ESCAT", "Ethylene", "c"}},
		"escat/co/C": {{"escat", "co", "C"}, {"escat", "CO", "c"}, {"escat", "carbon-monoxide", "C"},
			{"escat", "Carbon-Monoxide", "c"}},
		"prism/A":           {{"prism", "", "A"}, {"PRISM", "", "a"}},
		"prism/B":           {{"prism", "", "B"}, {"Prism", "", "b"}},
		"prism/C":           {{"prism", "", "C"}, {"prism", "", "c"}},
		"escat/ethylene/A2": {{"escat", "ethylene", "A2"}, {"escat", "", "a2"}},
		"escat/ethylene/B1": {{"escat", "ethylene", "B1"}, {"escat", "", "b1"}},
		"escat/ethylene/B3": {{"escat", "", "B3"}},
		"escat/co/A":        {{"escat", "co", "A"}},
	} {
		for _, sp := range spellings {
			r, err := Lookup(sp[0], sp[1], sp[2])
			if err != nil {
				t.Errorf("Lookup%q: %v", sp, err)
				continue
			}
			if got := r.Identity(); got != identity {
				t.Errorf("Lookup%q = %s, want %s", sp, got, identity)
			}
		}
	}
}

// TestCatalogueIDsAreTheBuilds pins Lookup's fixed id tables to the
// builds Exec runs: every escat progression build and "B", and every
// prism paper version, each once, and each resolving in Exec.
func TestCatalogueIDsAreTheBuilds(t *testing.T) {
	var escatBuilds, prismBuilds []string
	for _, v := range append(escat.Progressions(), escat.VersionB()) {
		escatBuilds = append(escatBuilds, v.ID)
	}
	for _, v := range prism.PaperVersions() {
		prismBuilds = append(prismBuilds, v.ID)
	}
	if !slices.Equal(escatIDs, escatBuilds) || !slices.Equal(prismIDs, prismBuilds) {
		t.Errorf("catalogue ids escat %v prism %v, builds escat %v prism %v", escatIDs, prismIDs, escatBuilds, prismBuilds)
	}
	for _, id := range escatIDs {
		for _, dataset := range []string{"ethylene", "co"} {
			if v, ok := escatVersion(id, dataset); !ok || v.ID != id {
				t.Errorf("escat %s on %s resolves to build %q (%v)", id, dataset, v.ID, ok)
			}
		}
	}
	if _, err := (Run{App: "prism", Version: "D"}).Exec(context.Background(), core.Config{}); err == nil {
		t.Error("a run outside the catalogue executed")
	}
}

// TestLookupRejects pins that every failure names the field it is about.
func TestLookupRejects(t *testing.T) {
	for _, tc := range []struct {
		app, dataset, version, field string
	}{
		{"", "", "C", "app"},
		{"fortran", "", "C", "app"},
		{"escat", "helium", "C", "dataset"},
		{"escat", "nosuch", "A", "dataset"},
		{"prism", "co", "C", "dataset"},
		{"prism", "ethylene", "A", "dataset"},
		{"escat", "ethylene", "Z", "version"},
		{"escat", "co", "", "version"},
		{"prism", "", "D", "version"},
		{"prism", "", "A2", "version"},
	} {
		_, err := Lookup(tc.app, tc.dataset, tc.version)
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("Lookup(%q, %q, %q) = %v, want a FieldError", tc.app, tc.dataset, tc.version, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("Lookup(%q, %q, %q) blames %s (%v), want %s", tc.app, tc.dataset, tc.version, fe.Field, err, tc.field)
		}
	}
}

// TestCarbonMonoxideCIsTheStagedRestartBuild pins the one special case:
// version C on carbon monoxide is the staged-restart build, and on
// ethylene it is not.
func TestCarbonMonoxideCIsTheStagedRestartBuild(t *testing.T) {
	for _, dataset := range []string{"co", "carbon-monoxide"} {
		r, err := Lookup("escat", dataset, "c")
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := escatVersion(r.Version, r.Dataset); !v.RestartStaged || !v.DirectRecordGopen {
			t.Errorf("%s C is not the staged-restart build", dataset)
		}
	}
	if v, _ := escatVersion("C", "ethylene"); v.RestartStaged {
		t.Error("ethylene C is the staged-restart build")
	}
}

// FuzzLookup checks that no spelling panics, that every failure names a
// field, and that a resolved run's own App, Dataset and Version resolve
// to the same run.
func FuzzLookup(f *testing.F) {
	for _, sp := range [][3]string{
		{"escat", "ethylene", "C"}, {"ESCAT", "", "b2"}, {"escat", "carbon-monoxide", "c"},
		{"escat", "co", "A"}, {"prism", "", "C"}, {"prism", "co", "C"}, {"fortran", "", "C"}, {"", "", ""},
	} {
		f.Add(sp[0], sp[1], sp[2])
	}
	f.Fuzz(func(t *testing.T, app, dataset, version string) {
		r, err := Lookup(app, dataset, version)
		if err != nil {
			var fe *FieldError
			if !errors.As(err, &fe) || (fe.Field != "app" && fe.Field != "dataset" && fe.Field != "version") {
				t.Fatalf("Lookup(%q, %q, %q) = %v, want a FieldError naming app, dataset or version",
					app, dataset, version, err)
			}
			return
		}
		again, err := Lookup(r.App, r.Dataset, r.Version)
		if err != nil {
			t.Fatalf("%s does not resolve again: %v", r.Identity(), err)
		}
		if again.App != r.App || again.Dataset != r.Dataset || again.Version != r.Version {
			t.Fatalf("%s resolves again to %s", r.Identity(), again.Identity())
		}
	})
}
