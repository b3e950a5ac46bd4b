package fixed

import "fmt"

// Node is a named quantisation point in a fixed-point datapath whose
// fractional word-length is an optimisation variable. The benchmarks
// build their datapaths out of Nodes so that a space.Config (one integer
// per node) can be applied uniformly: configuration value w at a node
// means "keep w fractional bits at this point".
type Node struct {
	// Name identifies the node in diagnostics ("mult_out", "acc", ...).
	Name string
	// IntBits is the fixed integer part chosen from the datapath's
	// dynamic-range analysis; it does not change during optimisation.
	IntBits int
}

// NewNode builds a node with the given name and integer bits.
func NewNode(name string, intBits int) *Node {
	return &Node{Name: name, IntBits: intBits}
}

// Format returns the node's format at frac fractional bits, with
// truncation quantisation and saturating overflow.
func (n *Node) Format(frac int) Format { return NewFormat(n.IntBits, frac) }

// Datapath is an ordered collection of quantisation nodes; its length is
// the Nv of the benchmark that owns it.
type Datapath struct {
	Nodes []*Node
}

// NewDatapath creates an empty datapath.
func NewDatapath() *Datapath { return &Datapath{} }

// AddNode appends a fresh node and returns it.
func (d *Datapath) AddNode(name string, intBits int) *Node {
	n := NewNode(name, intBits)
	d.Nodes = append(d.Nodes, n)
	return n
}

// Nv returns the number of optimisation variables (nodes).
func (d *Datapath) Nv() int { return len(d.Nodes) }

// Compile fills dst[i] with node i's format under cfg, compiled for
// quantisation; dst must have one entry per node. It writes only dst, so
// several goroutines can evaluate the same datapath under different
// configurations concurrently, each into its own dst.
func (d *Datapath) Compile(dst []Quantizer, cfg []int) error {
	if len(cfg) != len(d.Nodes) || len(dst) != len(d.Nodes) {
		return fmt.Errorf("fixed: config has %d entries and dst %d for %d nodes", len(cfg), len(dst), len(d.Nodes))
	}
	for i, n := range d.Nodes {
		if cfg[i] < 0 {
			return fmt.Errorf("fixed: negative word-length %d at node %s", cfg[i], n.Name)
		}
		dst[i] = n.Format(cfg[i]).Compile()
	}
	return nil
}
