package main

const sysMemfdCreate = 279
