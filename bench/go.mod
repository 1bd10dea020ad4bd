module lvm/bench

go 1.22

require lvm v0.0.0

replace lvm => ../
