// Package topology names the parts of a network graph: node and link
// identifiers, and the derivation of each flow's private reverse-jitter
// seed. The graph itself — links, routes, forwarding and the packet
// freelists — is the network engine in internal/shard.
package topology

// NodeID identifies a node in the graph.
type NodeID int

// LinkID identifies a directed link in the graph.
type LinkID int

// FlowJitterSeed derives the seed of a flow's private reverse-jitter
// stream from the network-wide jitter seed, so a flow's jitter sequence
// depends only on its own reverse traffic and is the same at every
// shard count.
func FlowJitterSeed(seed uint64, flow int) uint64 {
	return seed ^ (uint64(flow)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
}
