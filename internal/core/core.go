// Package core is the orchestration layer tying the mechanism packages
// into a deployable collection pipeline: a task-generic sharded
// aggregator, a registry of named collections, checkpoint persistence,
// and an HTTP collection service in the style of the deployed systems
// (clients POST privatized reports; analysts read estimates).
//
// The layer is written against task.Aggregator (internal/task) only:
// which task family a collection serves — frequency oracles, numeric
// means, private sketches — is a configuration tag resolved through
// the task registry, so new mechanism families plug in as adapter
// packages without touching this one. The frequency wire format and
// oracle registry live in internal/task/freqtask; this file keeps the
// (mechanism, ε, domain) names the binaries and the load harness
// configure frequency surveys with.
//
// Only privatized data ever crosses the client boundary — the Client
// type runs the randomization locally and exposes no raw-value
// transport, which is the entire point of the local model.
package core

import (
	"fmt"

	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/task"
	"repro/internal/task/freqtask"
)

// PrivacyParams is the user-facing privacy configuration of a
// frequency survey.
type PrivacyParams struct {
	Epsilon float64 `json:"epsilon"`
	Domain  int     `json:"domain"`
}

// Mechanism names accepted by the frequency oracle registry,
// re-exported from freqtask.
const (
	MechanismGRR = freqtask.MechanismGRR
	MechanismOUE = freqtask.MechanismOUE
	MechanismOLH = freqtask.MechanismOLH
)

// FreqTaskConfig is the task configuration of a frequency survey, the
// bridge from the legacy (mechanism, ε, domain) surface to the
// task-generic stack.
func FreqTaskConfig(mechanism string, p PrivacyParams) task.Config {
	return task.Config{Task: task.TypeFreq, Mechanism: mechanism, Epsilon: p.Epsilon, Domain: p.Domain}
}

// Client is the user-side handle of a frequency survey: it owns a
// local oracle instance used only for its client half.
type Client struct {
	oracle freq.Oracle
	params PrivacyParams
}

// NewClient returns a reporting client for the named mechanism. A nil
// source selects crypto/rand (the production configuration).
func NewClient(mechanism string, p PrivacyParams, src ldprand.Source) (*Client, error) {
	o, err := freqtask.NewOracle(mechanism, p.Epsilon, p.Domain, src)
	if err != nil {
		return nil, err
	}
	return &Client{oracle: o, params: p}, nil
}

// Report privatizes one value into a wire envelope.
func (c *Client) Report(v int) (freqtask.Envelope, error) {
	if v < 0 || v >= c.params.Domain {
		return freqtask.Envelope{}, fmt.Errorf("core: value %d outside domain [0,%d)", v, c.params.Domain)
	}
	return freqtask.Privatize(c.oracle, v)
}

// ReportBinary privatizes one value into a binary wire envelope, the
// counterpart of Report for binary-negotiated collections.
func (c *Client) ReportBinary(v int) ([]byte, error) {
	if v < 0 || v >= c.params.Domain {
		return nil, fmt.Errorf("core: value %d outside domain [0,%d)", v, c.params.Domain)
	}
	return freqtask.PrivatizeBinary(c.oracle, v)
}
