package main

import "hierctl/internal/metrics"

// Direct registration sites: names, help strings, and label keys must be
// constant and well-formed.
func direct(r *metrics.Registry, dyn string) {
	r.Counter("decisions_total", "decisions taken", "level")
	r.Counter("bad-name", "help")                                              // want `metric name "bad-name" does not match the Prometheus name grammar`
	r.Counter("ok_total", "")                                                  // want `help string must be non-empty at metrics registration`
	r.Counter(dyn+"_total", "help")                                            // want `metric name must be a constant string at metrics registration`
	r.Gauge("queue_depth", "queue depth", "bad-label")                         // want `label key "bad-label" does not match the Prometheus label grammar`
	r.Histogram("latency_seconds", "latency", []float64{0.1, 1}, "__reserved") // want `label key "__reserved" uses the reserved __ prefix`
}

// Wrapper registration: a closure forwarding its parameters into
// registration positions is checked at its own call sites.
func wrapped(r *metrics.Registry) {
	mustCounter := func(name, help string, labels ...string) *metrics.CounterVec {
		c, err := r.Counter(name, help, labels...)
		if err != nil {
			panic(err)
		}
		return c
	}
	mustCounter("wrapped_total", "wrapped counter", "node")
	mustCounter("wrapped-bad", "wrapped counter") // want `metric name "wrapped-bad" does not match the Prometheus name grammar`
}

// Label values: a value computed at run time is a series per distinct
// value, so it needs a constant or a stated bound.
func labelValues(r *metrics.Registry, tenant string, shard int) {
	c, _ := r.Counter("requests_total", "requests served", "who")
	c.With("all").Inc()
	c.With(tenant).Inc()           // want `label value is not a constant`
	c.With(levelName(shard)).Inc() //hpm:boundedlabel one of three level names
	//hpm:boundedlabel annotation on the line above works too
	c.With(levelName(shard)).Inc()
}

func levelName(i int) string { return [...]string{"l0", "l1", "l2"}[i%3] }

func main() {
	direct(&metrics.Registry{}, "computed_name")
	wrapped(&metrics.Registry{})
	labelValues(&metrics.Registry{}, "tenant-7", 1)
}
