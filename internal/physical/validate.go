package physical

import (
	"fmt"
	"math"
)

// Tag rewrites every fragment and exchange identifier with a query-scoped
// prefix, so that plans of concurrently executing queries never collide on
// the shared transport namespace (fragment instances register services
// derived from these IDs).
func (p *Plan) Tag(tag string) {
	if tag == "" {
		return
	}
	pre := tag + "."
	for _, f := range p.Fragments {
		f.ID = pre + f.ID
		if f.Output != nil {
			f.Output.ID = pre + f.Output.ID
			f.Output.ConsumerFragment = pre + f.Output.ConsumerFragment
		}
		var walk func(o *OpSpec)
		walk = func(o *OpSpec) {
			if o.Kind == KConsume {
				o.Exchange = pre + o.Exchange
			}
			for _, c := range o.Children {
				walk(c)
			}
		}
		walk(f.Root)
	}
}

// Validate checks the structural invariants every scheduled plan must hold;
// the services layer rejects invalid plans before deployment, and the
// property tests drive the scheduler through random queries against it.
func (p *Plan) Validate() error {
	if len(p.Fragments) == 0 {
		return fmt.Errorf("physical: plan has no fragments")
	}
	if p.Coordinator == "" {
		return fmt.Errorf("physical: plan has no coordinator")
	}
	byID := make(map[string]*FragmentSpec, len(p.Fragments))
	producerOf := make(map[string]*FragmentSpec)
	for _, f := range p.Fragments {
		if f.ID == "" {
			return fmt.Errorf("physical: fragment with empty ID")
		}
		if byID[f.ID] != nil {
			return fmt.Errorf("physical: duplicate fragment %s", f.ID)
		}
		byID[f.ID] = f
		if len(f.Instances) == 0 {
			return fmt.Errorf("physical: fragment %s has no instances", f.ID)
		}
		if len(f.InitialWeights) != len(f.Instances) {
			return fmt.Errorf("physical: fragment %s: %d weights for %d instances",
				f.ID, len(f.InitialWeights), len(f.Instances))
		}
		sum := 0.0
		for _, w := range f.InitialWeights {
			if w < 0 {
				return fmt.Errorf("physical: fragment %s: negative weight", f.ID)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("physical: fragment %s: weights sum to %v", f.ID, sum)
		}
		if f.Root == nil {
			return fmt.Errorf("physical: fragment %s has no operator tree", f.ID)
		}
		if f.Output != nil {
			if producerOf[f.Output.ID] != nil {
				return fmt.Errorf("physical: exchange %s has two producers", f.Output.ID)
			}
			producerOf[f.Output.ID] = f
			if f.Output.Policy == PolicyHash && len(f.Output.KeyOrds) == 0 {
				return fmt.Errorf("physical: hash exchange %s has no key ordinals", f.Output.ID)
			}
		}
	}
	top := p.Top()
	if top.Output != nil {
		return fmt.Errorf("physical: top fragment %s has an output exchange", top.ID)
	}
	for _, f := range p.Fragments {
		if f.Output != nil {
			cons := byID[f.Output.ConsumerFragment]
			if cons == nil {
				return fmt.Errorf("physical: exchange %s names unknown consumer %s",
					f.Output.ID, f.Output.ConsumerFragment)
			}
		}
		var err error
		var walk func(o *OpSpec)
		walk = func(o *OpSpec) {
			if err != nil {
				return
			}
			if o.Kind == KConsume {
				prod := producerOf[o.Exchange]
				switch {
				case prod == nil:
					err = fmt.Errorf("physical: fragment %s consumes unknown exchange %s", f.ID, o.Exchange)
				case prod.Output.ConsumerFragment != f.ID:
					err = fmt.Errorf("physical: exchange %s is wired to %s but consumed by %s",
						o.Exchange, prod.Output.ConsumerFragment, f.ID)
				case o.NumProducers != len(prod.Instances):
					err = fmt.Errorf("physical: fragment %s expects %d producers on %s, producer has %d instances",
						f.ID, o.NumProducers, o.Exchange, len(prod.Instances))
				}
			}
			if len(o.OutCols) == 0 && o.Kind != KLimit && o.Kind != KSort {
				err = fmt.Errorf("physical: fragment %s: %v spec has no output schema", f.ID, o.Kind)
			}
			if o.Kind == KJoin && o.Ords != nil && err == nil {
				err = validateJoinOut(f.ID, o)
			}
			for _, c := range o.Children {
				walk(c)
			}
		}
		walk(f.Root)
		if err != nil {
			return err
		}
	}
	// Every non-top exchange must be consumed somewhere.
	consumed := map[string]bool{}
	for _, f := range p.Fragments {
		var walk func(o *OpSpec)
		walk = func(o *OpSpec) {
			if o.Kind == KConsume {
				consumed[o.Exchange] = true
			}
			for _, c := range o.Children {
				walk(c)
			}
		}
		walk(f.Root)
	}
	for id := range producerOf {
		if !consumed[id] {
			return fmt.Errorf("physical: exchange %s has no consumer", id)
		}
	}
	return nil
}

// validateJoinOut checks a join's fused projection: one output column per
// ordinal, each ordinal inside build ++ probe.
func validateJoinOut(frag string, o *OpSpec) error {
	if len(o.Children) != 2 {
		return fmt.Errorf("physical: fragment %s: join has %d inputs, want 2", frag, len(o.Children))
	}
	width := len(o.Children[0].OutCols) + len(o.Children[1].OutCols)
	for _, ord := range o.Ords {
		if ord < 0 || ord >= width {
			return fmt.Errorf("physical: fragment %s: join output ordinal %d outside its %d input columns", frag, ord, width)
		}
	}
	if len(o.OutCols) != len(o.Ords) {
		return fmt.Errorf("physical: fragment %s: join emits %d ordinals into %d output columns", frag, len(o.Ords), len(o.OutCols))
	}
	return nil
}
