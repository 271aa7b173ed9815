// Macro-benchmarks: one per reconstructed figure/table of the BlobSeer
// evaluation (internal/bench/registry.go is the experiment index; each
// result's Notes state the paper shape it reproduces, and the README's
// performance sections record measured numbers). Each benchmark
// iteration runs the full experiment at reduced scale and reports the
// headline metric via b.ReportMetric; `go run ./cmd/blobseer-bench`
// prints the complete tables at full scale.
package blobseer_test

import (
	"testing"

	"repro/internal/bench"
)

// benchScale keeps every macro-benchmark iteration in the hundreds of
// milliseconds; cmd/blobseer-bench runs the full scale.
const benchScale = 0.12

func runExperiment(b *testing.B, id string, metric func(*bench.Result) (float64, string)) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(bench.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if v, unit := metric(res); unit != "" {
			b.ReportMetric(v, unit)
		}
	}
}

// lastOf reports the metric of the last row of the given series (the
// highest-X sweep point).
func lastOf(series string) func(*bench.Result) (float64, string) {
	return func(r *bench.Result) (float64, string) {
		for i := len(r.Rows) - 1; i >= 0; i-- {
			if r.Rows[i].Series == series {
				return r.Rows[i].Value, "MB/s"
			}
		}
		return 0, ""
	}
}

func BenchmarkE1ConcurrentReaders(b *testing.B) {
	runExperiment(b, "E1", lastOf("blobseer"))
}

func BenchmarkE2ConcurrentWriters(b *testing.B) {
	runExperiment(b, "E2", lastOf("blobseer"))
}

func BenchmarkE3ConcurrentAppenders(b *testing.B) {
	runExperiment(b, "E3", lastOf("blobseer"))
}

func BenchmarkE4MetadataOverhead(b *testing.B) {
	runExperiment(b, "E4", func(r *bench.Result) (float64, string) {
		for i := len(r.Rows) - 1; i >= 0; i-- {
			if r.Rows[i].Series == "no-cache" {
				return r.Rows[i].Value, "ms-nocache"
			}
		}
		return 0, ""
	})
}

func BenchmarkE5DataStriping(b *testing.B) {
	runExperiment(b, "E5", lastOf("blobseer"))
}

func BenchmarkE6MetadataDecentralization(b *testing.B) {
	runExperiment(b, "E6", lastOf("blobseer"))
}

func BenchmarkE7ChunkSize(b *testing.B) {
	runExperiment(b, "E7", lastOf("blobseer"))
}

func BenchmarkE8ReadersUnderWriters(b *testing.B) {
	runExperiment(b, "E8", lastOf("blobseer"))
}

func BenchmarkE9BSFSvsHDFS(b *testing.B) {
	runExperiment(b, "E9", func(r *bench.Result) (float64, string) {
		for _, row := range r.Rows {
			if row.Series == "bsfs" && row.XLabel == "concurrent-append" {
				return row.Value, "MB/s-bsfs-append"
			}
		}
		return 0, ""
	})
}

func BenchmarkE10MapReduce(b *testing.B) {
	runExperiment(b, "E10", func(r *bench.Result) (float64, string) {
		for _, row := range r.Rows {
			if row.Series == "bsfs" && row.XLabel == "wordcount" {
				return row.Value, "s-wordcount"
			}
		}
		return 0, ""
	})
}

func BenchmarkE11QoSFailures(b *testing.B) {
	runExperiment(b, "E11", func(r *bench.Result) (float64, string) {
		for _, row := range r.Rows {
			if row.Series == "repl=3+globem" && row.XLabel == "mean-throughput" {
				return row.Value, "MB/s-globem"
			}
		}
		return 0, ""
	})
}

func BenchmarkE12SnapshotReads(b *testing.B) {
	runExperiment(b, "E12", lastOf("blobseer"))
}

func BenchmarkE13DurableWriters(b *testing.B) {
	runExperiment(b, "E13", lastOf("blobseer"))
}

func BenchmarkE14RepairChurn(b *testing.B) {
	runExperiment(b, "E14", func(r *bench.Result) (float64, string) {
		for _, row := range r.Rows {
			if row.Series == "repair-throughput" {
				return row.Value, "MB/s-repair"
			}
		}
		return 0, ""
	})
}
