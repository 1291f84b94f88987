package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"paragonio/internal/core"
	"paragonio/internal/disk"
	"paragonio/internal/experiments"
	"paragonio/internal/pfs"
)

// FuzzSimulateRequest hardens request decoding and validation: any body
// either fails to decode, fails validation, or yields a request whose
// normalisation is idempotent (validating it again keeps its content
// address), whose tiers and faults the engine will accept, and whose
// every *_ms value converts to a time.Duration without wrapping.
func FuzzSimulateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"app":"escat","dataset":"ethylene","version":"C","seed":7}`,
		`{"app":"escat","dataset":"co","version":"C","shards":2}`,
		`{"app":"escat","dataset":"carbon-monoxide","version":"c"}`,
		`{"app":"ESCAT","version":"b2"}`,
		`{"app":"prism","version":"C","sample_ms":100000}`,
		`{"app":"prism","version":"c","sddf":true}`,
		`{"app":"prism","version":"C","ionodes":32,"stripe_unit":131072}`,
		`{"app":"prism","version":"C","ionodes":1073741824}`,
		`{"app":"prism","version":"C","tiers":{"ionode":{"write_behind":true,"read_ahead":4,"capacity_bytes":33554432}}}`,
		`{"app":"prism","version":"C","tiers":{"client":{"capacity_bytes":8388608,"lease_ttl_ms":600000}}}`,
		`{"app":"prism","version":"C","tiers":{"log":{}}}`,
		`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","at_ms":1000}]}`,
		`{"app":"prism","version":"C","faults":[{"kind":"node-crash","at_ms":1000}]}`,
		`{"app":"prism","version":"C","faults":[{"kind":"straggler","ionode":3,"factor":4}]}`,
		`{"app":"prism","version":"C","tiers":{"ionode":{"read_ahead":-1}}}`,
		`{"app":"escat","version":"C","sample_ms":-1}`,
		`{"app":"prism","version":"C","sample_ms":18446744073710,"tiers":{"ionode":{"flush_deadline_ms":18446744073710},"client":{"lease_ttl_ms":18446744073710},"log":{"drain_deadline_ms":18446744073710}}}`,
		`{"app":"prism","version":"C","sample_ms":9223372036854,"tiers":{"ionode":{"flush_deadline_ms":9223372036854},"client":{"lease_ttl_ms":9223372036854},"log":{"drain_deadline_ms":9223372036854}}}`,
		`{}`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req SimulateRequest
		dec := json.NewDecoder(bytes.NewReader([]byte(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return
		}
		key := experiments.ConfigKey(req.config(), req.identity())

		again := req
		if err := again.validate(); err != nil {
			t.Fatalf("validated request fails a second validate: %v", err)
		}
		if k := experiments.ConfigKey(again.config(), again.identity()); k != key {
			t.Fatalf("second validate moved the content address: %s -> %s", key, k)
		}

		cfg := req.config()
		// Every *_ms value survives its conversion to a time.Duration.
		roundTrip := func(name string, d time.Duration, ms int64) {
			if int64(d/time.Millisecond) != ms {
				t.Fatalf("%s %d ms became %v", name, ms, d)
			}
		}
		roundTrip("sample_ms", cfg.SampleInterval, req.SampleMS)
		if tr := req.Tiers; tr != nil {
			if tr.IONode != nil {
				roundTrip("flush_deadline_ms", cfg.Tiers.IONode.FlushDeadline, tr.IONode.FlushDeadlineMS)
			}
			if tr.Client != nil {
				roundTrip("lease_ttl_ms", cfg.Tiers.Client.LeaseTTL, tr.Client.LeaseTTLMS)
			}
			if tr.Log != nil {
				roundTrip("drain_deadline_ms", cfg.Tiers.Log.DrainDeadline, tr.Log.DrainDeadlineMS)
			}
		}
		for i, f := range req.Faults {
			got := cfg.Faults.Faults[i]
			roundTrip("at_ms", got.At, f.AtMS)
			roundTrip("until_ms", got.Until, f.UntilMS)
			roundTrip("period_ms", got.Period, f.PeriodMS)
		}
		stripe := cfg.StripeUnit
		if stripe == 0 {
			stripe = pfs.DefaultStripeUnit
		}
		if _, err := cfg.Tiers.WithDefaults(stripe, disk.DefaultParams()); err != nil {
			t.Fatalf("validated tiers rejected by WithDefaults: %v", err)
		}
		if err := core.CheckIONodes(cfg); err != nil {
			t.Fatalf("validated ionodes rejected by CheckIONodes: %v", err)
		}
		ionodes := cfg.IONodes
		if ionodes == 0 {
			ionodes = pfs.DefaultIONodes
		}
		if err := cfg.Faults.Validate(ionodes); err != nil {
			t.Fatalf("validated faults rejected by Validate: %v", err)
		}
	})
}
