package workloads

import (
	"testing"
)

// goldenOutputs pins each workload's exact output (captured from the
// reference interpreter and verified identical on both simulated
// processors by TestWorkloadsCrossEngine). A change here means program
// semantics drifted somewhere in the stack.
var goldenOutputs = map[string]string{
	"anagram": "85 30 6 765442\n",
	"ks":      "788 527 261\n",
	"ft":      "2969 7758\n",
	"yacr2":   "20 0 1254\n",
	"bc":      "4969273 2636800 3517\n",
	"art":     "16 2 88\n15.6163\n",
	"equake":  "45.1752\n2.4718\n3580\n",
	"mcf":     "17 4223\n",
	"bzip2":   "4096 2357 765486\n",
	"gzip":    "8192 893 305\n",
	"parser":  "400 350 50\n",
	"ammp":    "-382.7685\n7.7629\n",
	"vpr":     "1712 1101 152 872\n",
	"twolf":   "4921 3761 132\n",
	"crafty":  "5 10 176054 739113\n",
	"vortex":  "1714 474 303 108 18958\n",
	"gap":     "66 1053\n15 249\n24 440\n",
}

func TestWorkloadGoldenOutputs(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			want, ok := goldenOutputs[w.Name]
			if !ok {
				t.Fatalf("no golden output recorded for %s", w.Name)
			}
			_, got := interpretedRun(t, w, false)
			if got != want {
				t.Errorf("output drifted:\n got: %q\nwant: %q", got, want)
			}
		})
	}
}
