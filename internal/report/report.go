// Package report renders analysis results as fixed-width text: aligned
// tables (for the paper's Tables 1-5), axis-labelled character-grid
// plots (scatter timelines and CDFs for Figures 1-9), and CSV for
// external plotting.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table writes an aligned text table with a title, header row, and rule
// lines. Ragged rows are padded with empty cells.
func Table(w io.Writer, title string, headers []string, rows [][]string) error {
	cols := len(headers)
	for _, r := range rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	pad := func(row []string) []string {
		out := make([]string, cols)
		copy(out, row)
		return out
	}
	hdr := pad(headers)
	all := make([][]string, 0, len(rows)+1)
	all = append(all, hdr)
	for _, r := range rows {
		all = append(all, pad(r))
	}
	for _, r := range all {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var total int
	for _, wd := range widths {
		total += wd + 2
	}
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", max(total, len(title)))); err != nil {
			return err
		}
	}
	writeRow := func(r []string) error {
		var b strings.Builder
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(hdr); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, r := range all[1:] {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes headers and rows as comma-separated values, quoting cells
// that contain commas, quotes, or newlines.
func CSV(w io.Writer, headers []string, rows [][]string) error {
	writeLine := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeLine(headers); err != nil {
		return err
	}
	for _, r := range rows {
		if err := writeLine(r); err != nil {
			return err
		}
	}
	return nil
}

// Point is one mark of a plot.
type Point struct {
	X, Y float64
}

// Series is a named, glyph-tagged point set.
type Series struct {
	Name   string
	Glyph  rune
	Points []Point
	// Line connects consecutive points with interpolated marks (for
	// CDF step curves); scatter otherwise.
	Line bool
}

// Plot is a character-grid plot specification.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int  // grid columns (default 72)
	Height int  // grid rows (default 20)
	XLog   bool // logarithmic x axis (sizes)
	YLog   bool // logarithmic y axis (sizes vs time plots)
}

// Render draws the series onto a grid with axis annotations. Log axes
// drop non-positive coordinates (matching the paper's log-scale size
// plots, which start at 1).
func (p Plot) Render(w io.Writer, series []Series) error {
	width, height := p.Width, p.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 20
	}
	tx := func(v float64) (float64, bool) {
		if p.XLog {
			if v <= 0 {
				return 0, false
			}
			return math.Log10(v), true
		}
		return v, true
	}
	ty := func(v float64) (float64, bool) {
		if p.YLog {
			if v <= 0 {
				return 0, false
			}
			return math.Log10(v), true
		}
		return v, true
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	type tpoint struct {
		x, y  float64
		glyph rune
	}
	var pts []tpoint
	for _, s := range series {
		var prev *tpoint
		for _, pt := range s.Points {
			x, okx := tx(pt.X)
			y, oky := ty(pt.Y)
			if !okx || !oky {
				continue
			}
			cur := tpoint{x, y, s.Glyph}
			if s.Line && prev != nil {
				// Interpolate a few marks between points.
				const steps = 8
				for i := 1; i < steps; i++ {
					f := float64(i) / steps
					pts = append(pts, tpoint{
						x:     prev.x + (cur.x-prev.x)*f,
						y:     prev.y + (cur.y-prev.y)*f,
						glyph: s.Glyph,
					})
				}
			}
			pts = append(pts, cur)
			prev = &cur
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
	}
	if len(pts) == 0 {
		_, err := fmt.Fprintf(w, "%s\n(no data)\n", p.Title)
		return err
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	for _, pt := range pts {
		col := int((pt.x - minX) / (maxX - minX) * float64(width-1))
		row := int((pt.y - minY) / (maxY - minY) * float64(height-1))
		r := height - 1 - row
		grid[r][col] = pt.glyph
	}
	if p.Title != "" {
		if _, err := fmt.Fprintln(w, p.Title); err != nil {
			return err
		}
	}
	inv := func(v float64, log bool) float64 {
		if log {
			return math.Pow(10, v)
		}
		return v
	}
	topLabel := fmtAxis(inv(maxY, p.YLog))
	botLabel := fmtAxis(inv(minY, p.YLog))
	labelW := max(len(topLabel), len(botLabel))
	for i, row := range grid {
		label := strings.Repeat(" ", labelW)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", labelW, topLabel)
		case height - 1:
			label = fmt.Sprintf("%*s", labelW, botLabel)
		case height / 2:
			if p.YLabel != "" {
				l := p.YLabel
				if len(l) > labelW {
					l = l[:labelW]
				}
				label = fmt.Sprintf("%*s", labelW, l)
			}
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, strings.TrimRight(string(row), " ")); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", width)); err != nil {
		return err
	}
	lo, hi := fmtAxis(inv(minX, p.XLog)), fmtAxis(inv(maxX, p.XLog))
	gap := width - len(lo) - len(hi)
	if gap < 1 {
		gap = 1
	}
	if _, err := fmt.Fprintf(w, "%s %s%s%s  %s\n",
		strings.Repeat(" ", labelW), lo, strings.Repeat(" ", gap), hi, p.XLabel); err != nil {
		return err
	}
	// Legend.
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "%s  %c = %s\n", strings.Repeat(" ", labelW), s.Glyph, s.Name); err != nil {
			return err
		}
	}
	return nil
}

// fmtAxis formats an axis bound compactly.
func fmtAxis(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.3g", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

// SortedKeys returns the sorted keys of a string-keyed map — a helper
// for deterministic report emission.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// HBar renders a horizontal bar chart: one row per label, bars scaled to
// the maximum value, with the numeric value appended. Negative values
// are clamped to zero.
func HBar(w io.Writer, title string, labels []string, values []float64, width int) error {
	if len(labels) != len(values) {
		return fmt.Errorf("report: HBar labels/values length mismatch: %d vs %d",
			len(labels), len(values))
	}
	if width <= 0 {
		width = 40
	}
	var maxV float64
	labelW := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > labelW {
			labelW = len(labels[i])
		}
	}
	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	for i, v := range values {
		if v < 0 {
			v = 0
		}
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(width))
		}
		if _, err := fmt.Fprintf(w, "%-*s |%-*s %.6g\n",
			labelW, labels[i], width, strings.Repeat("#", n), values[i]); err != nil {
			return err
		}
	}
	return nil
}
