package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/analysis"
	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/report"
)

// paperTable2 holds the paper's Table 2 values: ESCAT % of total I/O
// time by operation, per version. Missing rows ("-") are absent keys.
var paperTable2 = map[string]float64{
	"A.open": 53.68, "A.read": 42.64, "A.seek": 1.01, "A.write": 1.27, "A.close": 1.39,
	"B.gopen": 4.05, "B.read": 0.24, "B.seek": 63.21, "B.write": 28.75, "B.iomode": 2.94, "B.close": 0.81,
	"C.open": 0.03, "C.gopen": 21.65, "C.read": 1.53, "C.seek": 1.75, "C.write": 55.63, "C.iomode": 16.06, "C.close": 3.34,
}

// paperTable3 holds Table 3: ESCAT % of total execution time by I/O
// operation type (ethylene A/B/C, carbon monoxide C), and the All-I/O row.
var paperTable3 = map[string]float64{
	"eth.A.allio": 2.97, "eth.B.allio": 4.60, "eth.C.allio": 0.73,
	"eth.A.open": 1.60, "eth.A.read": 1.27,
	"eth.B.seek": 2.91, "eth.B.write": 1.32,
	"eth.C.write": 0.41, "eth.C.gopen": 0.16,
	"co.C.allio": 19.40, "co.C.gopen": 7.45, "co.C.read": 9.50, "co.C.close": 2.41, "co.C.write": 0.03,
}

// paperTable5 holds Table 5: PRISM % of total I/O time by operation.
var paperTable5 = map[string]float64{
	"A.open": 75.43, "A.read": 16.24, "A.seek": 3.87, "A.write": 1.83, "A.close": 2.63,
	"B.open": 57.36, "B.read": 9.47, "B.seek": 1.22, "B.write": 9.91, "B.iomode": 17.75, "B.close": 4.50,
	"C.open": 3.36, "C.gopen": 3.42, "C.read": 83.92, "C.seek": 0.40, "C.write": 6.51, "C.flush": 0.06, "C.close": 2.32,
}

// comparisonTable renders paper-vs-measured rows for the shared keys.
func comparisonTable(title string, paper, measured map[string]float64) string {
	var b strings.Builder
	rows := make([][]string, 0, len(paper))
	for _, k := range report.SortedKeys(paper) {
		rows = append(rows, []string{
			k,
			fmt.Sprintf("%.2f", paper[k]),
			fmt.Sprintf("%.2f", measured[k]),
		})
	}
	report.Table(&b, title, []string{"metric", "paper", "measured"}, rows)
	return b.String()
}

// sharesFor extracts per-op percentages keyed "<prefix>.<op>".
func sharesFor(prefix string, shares []analysis.OpShare, into map[string]float64) {
	for _, sh := range shares {
		if sh.Count > 0 || sh.Percent > 0 {
			into[prefix+"."+sh.Op.String()] = sh.Percent
		}
	}
}

// table1 renders the ESCAT mode table; it is a configuration artifact,
// checked structurally (modes per phase/version) rather than numerically.
func table1(s *Suite) (*Artifact, error) {
	var b strings.Builder
	versions := escat.PaperVersions()
	headers := []string{"Phase"}
	for _, v := range versions {
		headers = append(headers, fmt.Sprintf("%s (%s) activity", v.ID, v.OS), "mode")
	}
	tables := make([][]escat.ModeTableRow, len(versions))
	for i, v := range versions {
		tables[i] = v.ModeTable()
	}
	var rows [][]string
	for r := range tables[0] {
		row := []string{tables[0][r].Phase}
		for i := range versions {
			row = append(row, tables[i][r].Activity, tables[i][r].Mode)
		}
		rows = append(rows, row)
	}
	report.Table(&b, "Table 1: node activity and file access modes (ESCAT)", headers, rows)

	// Structural check encoded numerically: 1 if the mode matches the
	// paper's cell.
	want := map[string]string{
		"A.p1": "All Nodes/M_UNIX", "A.p2": "Node zero/M_UNIX", "A.p3": "Node zero/M_UNIX", "A.p4": "Node zero/M_UNIX",
		"B.p1": "Node zero/M_UNIX", "B.p2": "All Nodes/M_UNIX", "B.p3": "All Nodes/M_RECORD", "B.p4": "Node zero/M_UNIX",
		"C.p1": "Node zero/M_UNIX", "C.p2": "All Nodes/M_ASYNC", "C.p3": "All Nodes/M_RECORD", "C.p4": "Node zero/M_UNIX",
	}
	paper := map[string]float64{}
	meas := map[string]float64{}
	for i, v := range versions {
		for r, row := range tables[i] {
			key := fmt.Sprintf("%s.p%d", v.ID, r+1)
			paper[key] = 1
			if want[key] == row.Activity+"/"+row.Mode {
				meas[key] = 1
			}
		}
	}
	return &Artifact{
		ID: "table1", Title: "Table 1 (ESCAT modes)",
		Text:  b.String(),
		Paper: paper, Measured: meas,
		Notes: "structural: 1 = phase's activity/mode matches the paper cell",
	}, nil
}

func table2(s *Suite) (*Artifact, error) {
	measured := map[string]float64{}
	var b strings.Builder
	var rows [][]string
	byVersion := map[string][]analysis.OpShare{}
	for _, id := range []string{"A", "B", "C"} {
		res, err := s.Ethylene(id)
		if err != nil {
			return nil, err
		}
		shares := analysis.IOTimeShares(res.Trace)
		byVersion[id] = shares
		sharesFor(id, shares, measured)
	}
	for _, op := range pablo.Ops() {
		row := []string{op.String()}
		for _, id := range []string{"A", "B", "C"} {
			var pct float64
			for _, sh := range byVersion[id] {
				if sh.Op == op {
					pct = sh.Percent
				}
			}
			row = append(row, fmt.Sprintf("%.2f", pct))
		}
		rows = append(rows, row)
	}
	report.Table(&b, "Table 2: aggregate I/O time by operation, % (ESCAT ethylene)",
		[]string{"Operation", "A", "B", "C"}, rows)
	b.WriteString("\n")
	b.WriteString(comparisonTable("paper vs measured", paperTable2, measured))
	return &Artifact{
		ID: "table2", Title: "Table 2 (ESCAT I/O time shares)",
		Text: b.String(), Paper: paperTable2, Measured: measured,
		Notes: "B's seek/write split reproduces with write slightly high; dominance ordering matches",
	}, nil
}

func table3(s *Suite) (*Artifact, error) {
	measured := map[string]float64{}
	var b strings.Builder
	var rows [][]string
	type col struct {
		label  string
		prefix string
		shares []analysis.OpShare
		allio  float64
	}
	var cols []col
	for _, id := range []string{"A", "B", "C"} {
		res, err := s.Ethylene(id)
		if err != nil {
			return nil, err
		}
		sh, all := analysis.ExecTimeShares(res.Trace, nodeTime(res))
		cols = append(cols, col{label: "eth " + id, prefix: "eth." + id, shares: sh, allio: all})
	}
	co, err := s.CarbonMonoxide()
	if err != nil {
		return nil, err
	}
	coSh, coAll := analysis.ExecTimeShares(co.Trace, nodeTime(co))
	cols = append(cols, col{label: "co C", prefix: "co.C", shares: coSh, allio: coAll})

	for _, c := range cols {
		sharesFor(c.prefix, c.shares, measured)
		measured[c.prefix+".allio"] = c.allio
	}
	for _, op := range pablo.Ops() {
		row := []string{op.String()}
		for _, c := range cols {
			var pct float64
			for _, sh := range c.shares {
				if sh.Op == op {
					pct = sh.Percent
				}
			}
			row = append(row, fmt.Sprintf("%.2f", pct))
		}
		rows = append(rows, row)
	}
	allRow := []string{"All I/O"}
	for _, c := range cols {
		allRow = append(allRow, fmt.Sprintf("%.2f", c.allio))
	}
	rows = append(rows, allRow)
	report.Table(&b, "Table 3: % of total execution time by I/O operation (ESCAT)",
		[]string{"Operation", "eth A", "eth B", "eth C", "co C"}, rows)
	b.WriteString("\n")
	b.WriteString(comparisonTable("paper vs measured", paperTable3, measured))
	return &Artifact{
		ID: "table3", Title: "Table 3 (ESCAT exec-time shares)",
		Text: b.String(), Paper: paperTable3, Measured: measured,
		Notes: "accounting: summed per-node I/O time over exec x nodes; B > A > C ordering and CO ~20% reproduce",
	}, nil
}

// nodeTime returns exec x nodes — the summed-node-time denominator of
// the paper's Table 3 accounting.
func nodeTime(res *core.Result) time.Duration {
	return res.Exec * time.Duration(res.Nodes)
}

func table4(s *Suite) (*Artifact, error) {
	var b strings.Builder
	versions := prism.PaperVersions()
	var rows [][]string
	for r := 0; r < 3; r++ {
		row := []string{versions[0].ModeTable()[r].Phase}
		for _, v := range versions {
			t := v.ModeTable()[r]
			row = append(row, t.Activity, t.Mode)
		}
		rows = append(rows, row)
	}
	report.Table(&b, "Table 4: node activity and file access modes (PRISM)",
		[]string{"Phase", "A activity", "mode", "B activity", "mode", "C activity", "mode"}, rows)

	want := map[string]string{
		"A.p1": "All Nodes/P: M_UNIX; R: M_UNIX; C: M_UNIX",
		"A.p2": "Node Zero/M_UNIX",
		"A.p3": "Node Zero/M_UNIX",
		"B.p1": "All Nodes/P: M_GLOBAL; R(h): M_GLOBAL, R(b): M_RECORD; C: M_GLOBAL",
		"B.p2": "Node Zero/M_UNIX",
		"B.p3": "All Nodes/M_ASYNC",
		"C.p1": "All Nodes/P: M_GLOBAL; R: M_ASYNC; C: M_GLOBAL",
		"C.p2": "Node Zero/M_UNIX",
		"C.p3": "All Nodes/M_ASYNC",
	}
	paper := map[string]float64{}
	meas := map[string]float64{}
	for _, v := range versions {
		for r, row := range v.ModeTable() {
			key := fmt.Sprintf("%s.p%d", v.ID, r+1)
			paper[key] = 1
			if want[key] == row.Activity+"/"+row.Mode {
				meas[key] = 1
			}
		}
	}
	return &Artifact{
		ID: "table4", Title: "Table 4 (PRISM modes)",
		Text: b.String(), Paper: paper, Measured: meas,
		Notes: "structural: 1 = phase's activity/mode matches the paper cell",
	}, nil
}

func table5(s *Suite) (*Artifact, error) {
	measured := map[string]float64{}
	var b strings.Builder
	var rows [][]string
	byVersion := map[string][]analysis.OpShare{}
	for _, id := range []string{"A", "B", "C"} {
		res, err := s.Prism(id)
		if err != nil {
			return nil, err
		}
		shares := analysis.IOTimeShares(res.Trace)
		byVersion[id] = shares
		sharesFor(id, shares, measured)
	}
	for _, op := range pablo.Ops() {
		row := []string{op.String()}
		for _, id := range []string{"A", "B", "C"} {
			var pct float64
			for _, sh := range byVersion[id] {
				if sh.Op == op {
					pct = sh.Percent
				}
			}
			row = append(row, fmt.Sprintf("%.2f", pct))
		}
		rows = append(rows, row)
	}
	report.Table(&b, "Table 5: aggregate I/O time by operation, % (PRISM)",
		[]string{"Operation", "A", "B", "C"}, rows)
	b.WriteString("\n")
	b.WriteString(comparisonTable("paper vs measured", paperTable5, measured))
	return &Artifact{
		ID: "table5", Title: "Table 5 (PRISM I/O time shares)",
		Text: b.String(), Paper: paperTable5, Measured: measured,
		Notes: "A open-dominated, B open+iomode-dominated with collapsed reads, C read-dominated after buffering disabled; B's write share under-reproduces",
	}, nil
}
