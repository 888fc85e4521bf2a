package main

const sysMemfdCreate = 319
