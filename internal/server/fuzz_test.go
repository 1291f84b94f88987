package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"paragonio/internal/core"
	"paragonio/internal/disk"
	"paragonio/internal/experiments"
	"paragonio/internal/pfs"
)

// FuzzSimulateRequest hardens request decoding and validation: any body
// either fails to decode, fails validation, or yields a request whose
// normalisation is idempotent (validating it again keeps its content
// address) and whose tiers and faults the engine will accept.
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
