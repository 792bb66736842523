package wire

import (
	"io"
	"testing"
)

// The four codec benchmarks move one daemon-sized frame (BatchRows rows) per
// iteration between a batch and its payload, both reused, and report rows/s —
// the root-module view of cmd/bench's wire.* probes.

func benchEncode(b *testing.B, t Type, msg any) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, t, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*BatchRows/b.Elapsed().Seconds(), "rows/s")
}

func benchDecode(b *testing.B, t Type, msg, into any) {
	p := encode(b, t, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Unmarshal(p, into); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*BatchRows/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkWireScoredEncode(b *testing.B) { benchEncode(b, TScoredBatch, scoredFrame()) }

func BenchmarkWireScoredDecode(b *testing.B) {
	benchDecode(b, TScoredBatch, scoredFrame(), new(ScoredBatch))
}

func BenchmarkWireRowBatchEncode(b *testing.B) { benchEncode(b, TRowBatch, rowFrame(true)) }

func BenchmarkWireRowBatchDecode(b *testing.B) {
	benchDecode(b, TRowBatch, rowFrame(true), new(RowBatch))
}
