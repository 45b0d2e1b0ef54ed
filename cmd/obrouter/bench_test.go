package main

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/word"
)

// BenchmarkRouterSend prices the front tier's routing layer: one send
// through candidate selection, the node's mux connection, and the
// backend's whole obwire loop. depth=1 is the sequential round-trip
// (routing overhead atop BinarySend/depth=1); keyed is the same
// round-trip with an affinity key, so the ring's successor lookup is on
// the path; pipelined drives the router from parallel callers, which is
// how concurrent client traffic naturally pipelines onto the per-node
// mux connections.
func BenchmarkRouterSend(b *testing.B) {
	run := func(b *testing.B, key uint64, parallel bool) {
		n := startNode(b, serve.Config{Workers: 2, GCEvery: -1, Timeout: 10 * time.Second})
		r := cluster.New(cluster.Config{
			Nodes:        []cluster.NodeSpec{nodeSpec(n)},
			PollInterval: time.Second,
		})
		defer r.Close()
		req := serve.Request{Receiver: word.FromInt(21), Selector: "double", Key: key}
		// One warm round trip dials the mux connection and populates the
		// server-side selector cache.
		if resp, err := r.Send(req); err != nil || !resp.OK() {
			b.Fatalf("warm send: %v %v", resp, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if !parallel {
			for i := 0; i < b.N; i++ {
				resp, err := r.Send(req)
				if err != nil || !resp.OK() {
					b.Fatalf("send: %v %v", resp, err)
				}
			}
			return
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := r.Send(req)
				if err != nil || !resp.OK() {
					b.Fatalf("send: %v %v", resp, err)
				}
			}
		})
	}
	b.Run("depth=1", func(b *testing.B) { run(b, 0, false) })
	b.Run("keyed", func(b *testing.B) { run(b, 7, false) })
	b.Run("pipelined", func(b *testing.B) { run(b, 0, true) })
}
