module minesweeper/benchmark

go 1.24

require minesweeper v0.0.0

replace minesweeper => ../
