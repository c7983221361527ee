package vc

import (
	"errors"
	"fmt"

	"ddemos/internal/journal"
	"ddemos/internal/transport"
)

// Open is the one way a VC node comes up, in ddemos-vc and core.Cluster
// alike. cfg.Endpoint is the node's raw network endpoint (a TCP node or a
// Memnet endpoint). Open wraps it in pairwise-MAC link authentication under
// the EA-dealt keys, then in the Batcher, so a coalesced batch is framed and
// tagged exactly once (DESIGN.md, "Batched message pipeline"). It builds the
// node on that stack, recovers its runtime state from dataDir when one is
// given (and keeps journaling there), and starts it.
//
// Open owns the network endpoint: a failed Open closes it, and so does Stop.
// onSendError, when set, hears about the frames a batch flush could not
// deliver; flushes run in the background, so nothing else would.
func Open(cfg Config, dataDir string, opts journal.Options, onSendError func(to transport.NodeID, err error)) (*Node, error) {
	network := cfg.Endpoint
	if cfg.Init == nil || network == nil {
		return nil, errors.New("vc: Open needs init data and a network endpoint")
	}
	links, err := transport.NewAuthenticated(network, cfg.Init.LinkKeys)
	if err != nil {
		_ = network.Close()
		return nil, fmt.Errorf("vc: %w (an init payload from an older ddemos-ea: re-run it)", err)
	}
	cfg.Endpoint = transport.NewBatcher(links, transport.BatcherOptions{OnSendError: onSendError})
	n, err := New(cfg)
	if err == nil && dataDir != "" {
		if err = n.RecoverWithOptions(dataDir, opts); err != nil {
			err = fmt.Errorf("vc: recovering runtime state from %s: %w", dataDir, err)
		}
	}
	if err != nil {
		_ = cfg.Endpoint.Close()
		return nil, err
	}
	n.links = links
	n.Start()
	return n, nil
}
