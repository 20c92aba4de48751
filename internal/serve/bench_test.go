package serve

import (
	"context"
	"testing"
)

// BenchmarkServeRun is one light run end to end over loopback HTTP:
// Client encode → handler decode → admission → slot → pooled session
// reset → run → JSON answer → client decode. It measures what the
// server adds around a run, client allocations included. Compare two
// trees with
//
//	go test -run '^$' -bench ServeRun -benchmem -count 10 ./internal/serve
func BenchmarkServeRun(b *testing.B) {
	_, c, _ := newTestServer(b, Config{Workers: 1})
	mustLoad(b, c, "quick", quickProg)
	ctx := context.Background()
	req := RunRequest{Module: "quick"}
	// The first run builds the session the rest reuse.
	if _, err := c.Run(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
