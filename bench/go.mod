module nexuspp/bench

go 1.24

require nexuspp v0.0.0

replace nexuspp => ../
