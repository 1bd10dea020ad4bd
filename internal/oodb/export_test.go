package oodb

import "fmt"

// Delete removes an object and unlinks it from its bucket chain.
func (s *Store) Delete(id uint32) error {
	if !s.inTxn {
		return fmt.Errorf("oodb: Delete outside transaction")
	}
	key := s.p.Load32(s.objVA(id))
	b := s.hash(key)
	// Unlink from the chain.
	cur := s.p.Load32(s.bucketVA(b))
	if cur == id+1 {
		next := s.p.Load32(s.objVA(id) + 4)
		if err := s.eng.RecoverableWrite32(s.bucketVA(b), next); err != nil {
			return err
		}
	} else {
		for cur != 0 {
			s.p.Compute(6)
			prev := cur - 1
			next := s.p.Load32(s.objVA(prev) + 4)
			if next == id+1 {
				if err := s.eng.RecoverableWrite32(s.objVA(prev)+4, s.p.Load32(s.objVA(id)+4)); err != nil {
					return err
				}
				break
			}
			cur = next
		}
	}
	if err := s.eng.RecoverableWrite32(s.bitmapVA(id), 0); err != nil {
		return err
	}
	s.Deletes++
	return nil
}
