package main

import (
	"bytes"
	"slices"
	"testing"

	"respat/internal/service"
)

// served returns one response per request, served by a service with the
// benchmark's configuration.
func served(t *testing.T, keys []request) []sample {
	t.Helper()
	h := service.New(serviceConfig(64)).Handler()
	w := newWriter()
	var out []sample
	for i := range keys {
		serve(h, w, &keys[i])
		if w.code != 200 {
			t.Fatalf("key %d: status %d: %s", i, w.code, w.body)
		}
		out = append(out, sample{q: &keys[i], body: slices.Clone(w.body)})
	}
	return out
}

func TestGateAcceptsServedAnswers(t *testing.T) {
	keys := []request{coldKey(1, 0), coldKey(1, 1), coldKey(1, 2), coldKey(1, 3)}
	s := served(t, keys)
	s = append(s, s[1]) // a repeated key is checked against the same cold response
	if g := checkSamples(s, service.New(serviceConfig(64)).Handler()); g.wrong != 0 || g.checked != 5 {
		t.Fatalf("gate: %d of %d wrong: %v", g.wrong, g.checked, g.notes)
	}
}

func TestGateRejectsCorruptedResponses(t *testing.T) {
	keys := []request{coldKey(1, 0), coldKey(1, 5), coldKey(1, 10)}
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"changed W", func(b []byte) []byte { return bytes.Replace(b, []byte(`"w":`), []byte(`"w":1`), 1) }},
		{"changed m", func(b []byte) []byte { return bytes.Replace(b, []byte(`"m":`), []byte(`"m":9`), 1) }},
		{"same numbers, other bytes", func(b []byte) []byte { return bytes.Replace(b, []byte(`"w":`), []byte(`"w": `), 1) }},
		{"not JSON", func(b []byte) []byte { return b[:len(b)/2] }},
	} {
		for i := range keys {
			s := served(t, keys)
			s[i].body = tc.corrupt(s[i].body)
			g := checkSamples(s, service.New(serviceConfig(64)).Handler())
			if g.wrong != 1 {
				t.Errorf("%s on key %d: %d wrong, want 1 (%v)", tc.name, i, g.wrong, g.notes)
			}
		}
	}
}
