package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSameSeedSameRequests(t *testing.T) {
	gens := map[string]func(seed uint64, i int) []byte{
		"cold": func(seed uint64, i int) []byte { return coldKey(seed, i).body },
		"probe": func(seed uint64, i int) []byte {
			b, err := json.Marshal(probeParams(seed, i))
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, gen := range gens {
		for i := 0; i < 50; i++ {
			a, b := gen(7, i), gen(7, i)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s key %d: seed 7 gave %s then %s", name, i, a, b)
			}
			if c := gen(8, i); bytes.Equal(a, c) {
				t.Fatalf("%s key %d: seeds 7 and 8 gave the same request %s", name, i, a)
			}
		}
	}
}

func TestKeysAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		q := coldKey(1, i)
		if seen[string(q.body)] {
			t.Fatalf("cold_exact request %d repeats an earlier one", i)
		}
		seen[string(q.body)] = true
	}
}
