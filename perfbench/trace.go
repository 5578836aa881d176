package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// traceEvent is one Chrome trace-event: "X" for a timed call, "M" for
// the metadata naming a track.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeSpans writes the replica's spans as Chrome trace-event JSON in
// host microseconds: one track per layer, one slice per block per
// timed call. Perfetto (ui.perfetto.dev) and chrome://tracing open it.
func writeSpans(path string, spans []span) error {
	events := []traceEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "perfbench replica (host time)"}}}
	for l := layer(0); l < numLayers; l++ {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Tid: int(l),
			Args: map[string]any{"name": layerNames[l]}})
	}
	for _, s := range spans {
		events = append(events, traceEvent{Name: layerNames[s.layer], Ph: "X", Tid: int(s.layer),
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"block": s.block}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
