package serve

import (
	"context"
	"testing"
)

// plantScanProg is the adversarial pooled-session pair: tenant A's
// entry fills a heap block with a secret; tenant B's entry allocates
// the same block (the reset allocator is deterministic, so it lands on
// the same address) and counts nonzero words. Any survivor from A's
// run shows up in B's return value.
const plantScanProg = `
int plant() {
	int i;
	int *p = malloc(8192);
	for (i = 0; i < 2048; i++) p[i] = 0x5EC2E75E;
	return 1;
}
int scan() {
	int i, n = 0;
	int *p = malloc(8192);
	for (i = 0; i < 2048; i++) if (p[i] != 0) n = n + 1;
	return n;
}
int main() { return 0; }
`

// TestPoolReuseBitIdentical: with one worker, consecutive runs of the
// same module are served by one pooled session — after the cold first
// run every run reports Reused, and value, output and cycle count stay
// bit-identical to the cold run.
func TestPoolReuseBitIdentical(t *testing.T) {
	srv, c, _ := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "quick", quickProg)

	var cold RunResponse
	for i := 0; i < 3; i++ {
		resp, err := c.Run(context.Background(), RunRequest{Module: "quick", Tenant: "t"})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if resp.Output != "328350\n" {
			t.Fatalf("run %d: output = %q", i, resp.Output)
		}
		if resp.QueueNS < 0 || resp.ExecNS <= 0 {
			t.Errorf("run %d: latency split queue=%d exec=%d", i, resp.QueueNS, resp.ExecNS)
		}
		if i == 0 {
			if resp.Reused {
				t.Error("first run reports Reused")
			}
			cold = resp
			continue
		}
		if !resp.Reused {
			t.Errorf("run %d not served from the pool", i)
		}
		if resp.Value != cold.Value || resp.Cycles != cold.Cycles || resp.Instrs != cold.Instrs {
			t.Errorf("run %d diverged from cold run: {v=%d c=%d i=%d} vs {v=%d c=%d i=%d}",
				i, resp.Value, resp.Cycles, resp.Instrs, cold.Value, cold.Cycles, cold.Instrs)
		}
	}
	if reuse := srv.tele.CounterValue(MetricSessionReuse); reuse != 2 {
		t.Errorf("session_reuse = %d, want 2", reuse)
	}
	if coldN := srv.tele.CounterValue(MetricSessionCold); coldN != 1 {
		t.Errorf("session_cold = %d, want 1", coldN)
	}
}

// TestPoolCrossTenantIsolation is the end-to-end adversarial gate:
// tenant A plants a secret, tenant B's run is provably served by the
// same pooled session (Reused), and B observes only zeros.
func TestPoolCrossTenantIsolation(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "adv", plantScanProg)

	a, err := c.Run(context.Background(), RunRequest{Module: "adv", Entry: "plant", Tenant: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 1 {
		t.Fatalf("plant = %d, want 1", a.Value)
	}
	b, err := c.Run(context.Background(), RunRequest{Module: "adv", Entry: "scan", Tenant: "B"})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reused {
		t.Fatal("tenant B did not reuse tenant A's session; isolation unexercised")
	}
	if b.Value != 0 {
		t.Fatalf("tenant B read %d secret words from tenant A's run", b.Value)
	}
}

// TestPoolModuleReplaceEvicts: re-registering a module under the same
// name with different source must orphan the old stamp's pooled
// sessions — the next run executes the new code, cold.
func TestPoolModuleReplaceEvicts(t *testing.T) {
	_, c, _ := newTestServer(t, Config{Workers: 1})
	mustLoad(t, c, "m", quickProg)
	if resp, err := c.Run(context.Background(), RunRequest{Module: "m"}); err != nil || resp.Output != "328350\n" {
		t.Fatalf("v1 run: %v %q", err, resp.Output)
	}
	mustLoad(t, c, "m", `int main() { print_int(7); print_nl(); return 7; }`)
	resp, err := c.Run(context.Background(), RunRequest{Module: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Reused {
		t.Error("run after module replacement reused a stale session")
	}
	if resp.Output != "7\n" || resp.Value != 7 {
		t.Errorf("replaced module ran old code: value=%d output=%q", resp.Value, resp.Output)
	}
}
